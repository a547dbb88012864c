package cbjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"qosalloc/internal/casebase"
)

// jsonDecode is Decode as it stood on encoding/json: one reflective
// decode into Document with unknown fields disallowed, then the same
// rebuild. It reads only the first value of r.
func jsonDecode(r io.Reader) (*casebase.CaseBase, error) {
	var doc Document
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("cbjson: decode: %w (%w)", err, ErrBadDocument)
	}
	return rebuild(&doc)
}

// referenceDecode is the decoder the scanner must match: jsonDecode,
// plus the two rules encoding/json does not apply, each checked on
// encoding/json's own token stream. A key may not repeat within one
// object under case folding, and only whitespace may follow the
// document.
func referenceDecode(data []byte) (*casebase.CaseBase, error) {
	cb, err := jsonDecode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := checkKeys(dec); err != nil {
		return nil, fmt.Errorf("cbjson: decode: %w (%w)", err, ErrBadDocument)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("cbjson: decode: data after the document: %w", ErrBadDocument)
	}
	return cb, nil
}

// checkKeys reads one value from dec and fails on a key that repeats
// within one object. strings.EqualFold is the equality encoding/json's
// field-name fold gives.
func checkKeys(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	switch tok {
	case json.Delim('['):
		for dec.More() {
			if err := checkKeys(dec); err != nil {
				return err
			}
		}
	case json.Delim('{'):
		var keys []string
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				return err
			}
			key := tok.(string)
			for _, k := range keys {
				if strings.EqualFold(k, key) {
					return fmt.Errorf("repeated key %q", key)
				}
			}
			keys = append(keys, key)
			if err := checkKeys(dec); err != nil {
				return err
			}
		}
	default:
		return nil
	}
	_, err = dec.Token() // the closing delimiter
	return err
}
