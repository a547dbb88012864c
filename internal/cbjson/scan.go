package cbjson

import (
	"encoding/json"
	"fmt"
	"math"
	"unicode"
	"unicode/utf8"

	"qosalloc/internal/casebase"
)

// decodeDocument fills doc from data, which must hold exactly one
// document. It reads the document's six object shapes (document,
// attribute, type, implementation, pair, footprint) with one function
// each, and keeps the rules encoding/json applies when it decodes into
// Document with unknown fields disallowed:
//
//   - Keys may come in any order. A key matches its field under
//     encoding/json's case fold, so "ID" and "id" name id.
//   - A key that names no field is an error.
//   - A null value leaves its field as it was.
//   - Numbers follow the JSON grammar and must fit their field: uint16
//     for ids, lo/hi and values, int for the version and the footprint.
//     A fraction or an exponent is an error, and so is a minus sign in a
//     uint16 field.
//   - Strings may not hold control bytes. Escapes decode, and invalid
//     UTF-8 becomes U+FFFD.
//
// Beyond those rules, a key that repeats within one object (after
// folding) is an error rather than a merge, and so is anything but
// whitespace after the document. Every error wraps ErrBadDocument.
func decodeDocument(data []byte, doc *Document) error {
	s := scanner{data: data}
	s.skipSpace()
	if err := s.document(doc); err != nil {
		return err
	}
	s.skipSpace()
	if s.pos < len(s.data) {
		return s.fail("data after the document")
	}
	return nil
}

// Field names per object shape, in the order of their struct fields.
// A field's index is its bit in the per-object seen mask.
var (
	documentFields  = []string{"version", "attributes", "types"}
	attributeFields = []string{"id", "name", "unit", "kind", "lo", "hi", "symbols"}
	typeFields      = []string{"id", "name", "implementations"}
	implFields      = []string{"id", "name", "target", "attributes", "footprint"}
	pairFields      = []string{"id", "value"}
	footprintFields = []string{"Slices", "BRAMs", "Multipliers", "CPULoad", "MemBytes", "PowerMW", "ConfigBytes"}
)

type scanner struct {
	data []byte
	pos  int

	// One scratch slice per element type: array gathers an array's
	// elements here and copies them out at their exact count, so the
	// slice growth is paid once per document, not once per array
	// (appending to each array's own slice costs BenchmarkDecodeCaseBase
	// 12.7k more allocations per decode, 54.4k against 41.8k).
	attrs []AttrJSON
	types []TypeJSON
	impls []ImplJSON
	pairs []PairJSON
	syms  []string
}

func (s *scanner) fail(what string) error {
	return fmt.Errorf("cbjson: decode: %s at offset %d: %w", what, s.pos, ErrBadDocument)
}

// unexpected reports the byte at the scan position where want should be.
func (s *scanner) unexpected(want string) error {
	if s.pos >= len(s.data) {
		return s.fail("unexpected end of document, want " + want)
	}
	return s.fail(fmt.Sprintf("invalid character %q, want %s", s.data[s.pos], want))
}

// peek returns the byte at the scan position, or 0 at the end: no JSON
// token starts with 0, so every caller treats it as unexpected.
func (s *scanner) peek() byte {
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

func (s *scanner) skipSpace() {
	data, i := s.data, s.pos
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			break
		}
	}
	s.pos = i
}

// null consumes a null literal if one is next.
func (s *scanner) null() bool {
	if len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

// object reads an object, or null, which leaves every field as it was.
// For each member it reads the key, finds its index in names and calls
// value with the index, the scan position at the member's value. A key
// that names no field, or the same field as an earlier key, is an error.
func (s *scanner) object(names []string, value func(field int) error) error {
	if s.null() {
		return nil
	}
	if s.peek() != '{' {
		return s.unexpected("an object")
	}
	s.pos++
	var seen uint // a bit per field the object has named
	for {
		s.skipSpace()
		switch c := s.peek(); {
		case c == '}':
			s.pos++
			return nil
		case seen == 0:
		case c == ',':
			s.pos++
			s.skipSpace()
		default:
			return s.unexpected("',' or '}'")
		}
		start := s.pos
		raw, plain, err := s.stringToken()
		if err != nil {
			return err
		}
		key := raw
		if !plain {
			u, err := s.unquote(start)
			if err != nil {
				return err
			}
			key = appendFoldedName(nil, []byte(u))
		}
		i := lookup(names, key)
		if i < 0 {
			s.pos = start
			return s.fail(fmt.Sprintf("unknown field %q", key))
		}
		if seen&(1<<i) != 0 {
			s.pos = start
			return s.fail(fmt.Sprintf("repeated field %q", names[i]))
		}
		seen |= 1 << i
		s.skipSpace()
		if s.peek() != ':' {
			return s.unexpected("':'")
		}
		s.pos++
		s.skipSpace()
		if err := value(i); err != nil {
			return err
		}
	}
}

// lookup returns the index of the name that key matches under the
// ASCII case fold, or -1. Every field name is ASCII, so for an ASCII key
// this is encoding/json's fold, and a key that took the slow path is
// folded already.
func lookup(names []string, key []byte) int {
	for i, n := range names {
		if foldEqual(key, n) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key and name are equal under the ASCII case
// fold.
func foldEqual(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for j := range key {
		a, b := key[j], name[j]
		if 'a' <= a && a <= 'z' {
			a -= 'a' - 'A'
		}
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}

// stringToken reads a string token and returns the bytes between its
// quotes, and whether they are plain: printable ASCII with no escape, so
// that they are the string's value as they stand.
func (s *scanner) stringToken() (raw []byte, plain bool, err error) {
	if s.peek() != '"' {
		return nil, false, s.unexpected("a string")
	}
	start := s.pos + 1
	plain = true
	for i := start; i < len(s.data); i++ {
		for i < len(s.data) && plainByte[s.data[i]] {
			i++
		}
		if i == len(s.data) {
			break
		}
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i], plain, nil
		case c == '\\':
			plain = false
			i++ // an escaped byte never ends the string
		case c < 0x20:
			s.pos = i
			return nil, false, s.fail("control character in string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	s.pos = len(s.data)
	return nil, false, s.unexpected(`'"'`)
}

// plainByte marks the bytes a string token holds as they stand: all of
// printable ASCII but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote decodes the string token from start to the scan position as
// encoding/json does, escapes and invalid UTF-8 included, by handing it
// that one token.
func (s *scanner) unquote(start int) (string, error) {
	var v string
	if err := json.Unmarshal(s.data[start:s.pos], &v); err != nil {
		return "", fmt.Errorf("cbjson: decode: string at offset %d: %w (%w)", start, err, ErrBadDocument)
	}
	return v, nil
}

// readString reads a string into *p; null leaves *p as it was.
func (s *scanner) readString(p *string) error {
	if s.null() {
		return nil
	}
	start := s.pos
	raw, plain, err := s.stringToken()
	if err != nil {
		return err
	}
	if !plain {
		*p, err = s.unquote(start)
		return err
	}
	*p = string(raw)
	return nil
}

// integer reads a number that must be an integer and returns its
// magnitude and sign. It reads only `-?(0|[1-9][0-9]*)`: whatever
// follows is the caller's delimiter, so "01" fails there.
func (s *scanner) integer() (mag uint64, neg bool, err error) {
	start := s.pos
	if s.peek() == '-' {
		neg = true
		s.pos++
	}
	c := s.peek()
	if c < '0' || c > '9' {
		return 0, false, s.unexpected("a number")
	}
	overflow := false
	if c == '0' {
		s.pos++
	} else {
		for ; '0' <= c && c <= '9'; c = s.peek() {
			d := uint64(c - '0')
			if mag > (math.MaxUint64-d)/10 {
				overflow = true
			}
			mag = mag*10 + d
			s.pos++
		}
	}
	switch c := s.peek(); {
	case c == '.' || c == 'e' || c == 'E':
		s.pos = start
		return 0, false, s.fail("number with a fraction or exponent where an integer belongs")
	case overflow:
		s.pos = start
		return 0, false, s.fail("number out of range")
	}
	return mag, neg, nil
}

// readUint16 reads a number into *p; null leaves *p as it was.
func (s *scanner) readUint16(p *uint16) error {
	if s.null() {
		return nil
	}
	start := s.pos
	mag, neg, err := s.integer()
	if err != nil {
		return err
	}
	if neg || mag > math.MaxUint16 {
		s.pos = start
		return s.fail("number out of range for uint16")
	}
	*p = uint16(mag)
	return nil
}

// readInt reads a number into *p; null leaves *p as it was.
func (s *scanner) readInt(p *int) error {
	if s.null() {
		return nil
	}
	start := s.pos
	mag, neg, err := s.integer()
	if err != nil {
		return err
	}
	switch {
	case !neg && mag <= math.MaxInt:
		*p = int(mag)
	case neg && mag <= uint64(math.MaxInt)+1:
		*p = -int(mag) // mag == MaxInt+1 wraps to MinInt and stays there
	default:
		s.pos = start
		return s.fail("number out of range for int")
	}
	return nil
}

// array reads an array into *dst, calling elem on a zero element for
// each of its values; null leaves *dst as it was, and [] makes it empty
// but not nil, as encoding/json does. Elements gather in *scratch first.
func array[T any](s *scanner, dst *[]T, scratch *[]T, elem func(*scanner, *T) error) error {
	if s.null() {
		return nil
	}
	if s.peek() != '[' {
		return s.unexpected("an array")
	}
	s.pos++
	buf := (*scratch)[:0]
	var zero T
	for {
		s.skipSpace()
		switch c := s.peek(); {
		case c == ']':
			s.pos++
			*dst = append(make([]T, 0, len(buf)), buf...)
			*scratch = buf[:0]
			return nil
		case len(buf) == 0:
		case c == ',':
			s.pos++
			s.skipSpace()
		default:
			return s.unexpected("',' or ']'")
		}
		buf = append(buf, zero)
		if err := elem(s, &buf[len(buf)-1]); err != nil {
			return err
		}
	}
}

func (s *scanner) document(d *Document) error {
	return s.object(documentFields, func(f int) error {
		switch f {
		case 0:
			return s.readInt(&d.Version)
		case 1:
			return array(s, &d.Attributes, &s.attrs, (*scanner).attribute)
		}
		return array(s, &d.Types, &s.types, (*scanner).typ)
	})
}

func (s *scanner) attribute(a *AttrJSON) error {
	return s.object(attributeFields, func(f int) error {
		switch f {
		case 0:
			return s.readUint16(&a.ID)
		case 1:
			return s.readString(&a.Name)
		case 2:
			return s.readString(&a.Unit)
		case 3:
			return s.readString(&a.Kind)
		case 4:
			return s.readUint16(&a.Lo)
		case 5:
			return s.readUint16(&a.Hi)
		}
		return array(s, &a.Symbols, &s.syms, (*scanner).readString)
	})
}

func (s *scanner) typ(t *TypeJSON) error {
	return s.object(typeFields, func(f int) error {
		switch f {
		case 0:
			return s.readUint16(&t.ID)
		case 1:
			return s.readString(&t.Name)
		}
		return array(s, &t.Impls, &s.impls, (*scanner).impl)
	})
}

func (s *scanner) impl(im *ImplJSON) error {
	return s.object(implFields, func(f int) error {
		switch f {
		case 0:
			return s.readUint16(&im.ID)
		case 1:
			return s.readString(&im.Name)
		case 2:
			return s.readString(&im.Target)
		case 3:
			return array(s, &im.Attrs, &s.pairs, (*scanner).pair)
		}
		return s.footprint(&im.Foot)
	})
}

func (s *scanner) pair(p *PairJSON) error {
	return s.object(pairFields, func(f int) error {
		if f == 0 {
			return s.readUint16(&p.ID)
		}
		return s.readUint16(&p.Value)
	})
}

func (s *scanner) footprint(fp *casebase.Footprint) error {
	return s.object(footprintFields, func(f int) error {
		return s.readInt([]*int{&fp.Slices, &fp.BRAMs, &fp.Multipliers,
			&fp.CPULoad, &fp.MemBytes, &fp.PowerMW, &fp.ConfigBytes}[f])
	})
}

// appendFoldedName and foldRune are encoding/json's field-name fold
// (encoding/json/fold.go): ASCII letters fold to upper case, and every
// other rune to the smallest rune of its case-fold orbit, so the Kelvin
// sign folds to 'K' and the long s to 'S'.
func appendFoldedName(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		out = utf8.AppendRune(out, foldRune(r))
		i += n
	}
	return out
}

func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
