// Package cbjson persists attribute registries and case bases as JSON —
// the design-time interchange format a toolchain around the allocator
// needs (the paper's authors used Matlab scripts "for creating and
// exporting all needed data structures"; this is the equivalent
// exporter/importer for this library). The format is self-contained: one
// document carries the registry (with design-global bounds) and the full
// implementation tree, so a decoded case base revalidates from scratch.
package cbjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
)

// FormatVersion guards against silently decoding incompatible documents.
const FormatVersion = 1

// ErrBadDocument is the sentinel wrapped by every Decode failure caused
// by document content (as opposed to I/O), so callers can errors.Is the
// format path apart from transport errors.
var ErrBadDocument = errors.New("cbjson: invalid document")

// Document is the on-disk shape.
type Document struct {
	Version    int        `json:"version"`
	Attributes []AttrJSON `json:"attributes"`
	Types      []TypeJSON `json:"types"`
}

// AttrJSON is one attribute definition.
type AttrJSON struct {
	ID      uint16   `json:"id"`
	Name    string   `json:"name"`
	Unit    string   `json:"unit,omitempty"`
	Kind    string   `json:"kind"`
	Lo      uint16   `json:"lo"`
	Hi      uint16   `json:"hi"`
	Symbols []string `json:"symbols,omitempty"`
}

// TypeJSON is one function type with its variants.
type TypeJSON struct {
	ID    uint16     `json:"id"`
	Name  string     `json:"name"`
	Impls []ImplJSON `json:"implementations"`
}

// ImplJSON is one implementation variant.
type ImplJSON struct {
	ID     uint16             `json:"id"`
	Name   string             `json:"name,omitempty"`
	Target string             `json:"target"`
	Attrs  []PairJSON         `json:"attributes"`
	Foot   casebase.Footprint `json:"footprint"`
}

// PairJSON is one attribute instance.
type PairJSON struct {
	ID    uint16 `json:"id"`
	Value uint16 `json:"value"`
}

var kindNames = map[attr.Kind]string{
	attr.Numeric: "numeric", attr.Ordinal: "ordinal", attr.Flag: "flag",
}

var kindByName = map[string]attr.Kind{
	"numeric": attr.Numeric, "ordinal": attr.Ordinal, "flag": attr.Flag,
}

var targetNames = map[casebase.Target]string{
	casebase.TargetFPGA: "fpga", casebase.TargetDSP: "dsp", casebase.TargetGPP: "gpp",
}

var targetByName = map[string]casebase.Target{
	"fpga": casebase.TargetFPGA, "dsp": casebase.TargetDSP, "gpp": casebase.TargetGPP,
}

// Encode writes cb (with its registry) to w as indented JSON.
func Encode(w io.Writer, cb *casebase.CaseBase) error {
	doc := Document{Version: FormatVersion}
	reg := cb.Registry()
	for _, id := range reg.IDs() {
		d, _ := reg.Lookup(id)
		doc.Attributes = append(doc.Attributes, AttrJSON{
			ID: uint16(d.ID), Name: d.Name, Unit: d.Unit,
			Kind: kindNames[d.Kind], Lo: uint16(d.Lo), Hi: uint16(d.Hi),
			Symbols: d.Symbols,
		})
	}
	for _, ft := range cb.Types() {
		tj := TypeJSON{ID: uint16(ft.ID), Name: ft.Name}
		for i := range ft.Impls {
			im := &ft.Impls[i]
			ij := ImplJSON{
				ID: uint16(im.ID), Name: im.Name,
				Target: targetNames[im.Target], Foot: im.Foot,
			}
			for _, p := range im.Attrs {
				ij.Attrs = append(ij.Attrs, PairJSON{ID: uint16(p.ID), Value: uint16(p.Value)})
			}
			tj.Impls = append(tj.Impls, ij)
		}
		doc.Types = append(doc.Types, tj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Decode reads one document, to the end of r, and rebuilds a fully
// validated case base. Field names match case-insensitively and keys may
// come in any order; unknown fields, a key repeated within one object,
// numbers that do not fit their field and data after the document are
// errors. A read error comes back wrapped as "cbjson: read"; every
// failure the document's content causes wraps ErrBadDocument.
func Decode(r io.Reader) (*casebase.CaseBase, error) {
	// io.Copy hands a reader that knows its length (a bytes.Reader, say)
	// to the buffer in one write, so the document lands in one buffer of
	// its own size; io.ReadAll would grow it by repeated append.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("cbjson: read: %w", err)
	}
	var doc Document
	if err := decodeDocument(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	return rebuild(&doc)
}

// rebuild checks doc's version and rebuilds its registry and case base,
// which revalidate every definition and implementation from scratch.
func rebuild(doc *Document) (*casebase.CaseBase, error) {
	if doc.Version != FormatVersion {
		return nil, fmt.Errorf("cbjson: unsupported format version %d (want %d): %w", doc.Version, FormatVersion, ErrBadDocument)
	}
	reg := attr.NewRegistry()
	for _, a := range doc.Attributes {
		kind, ok := kindByName[a.Kind]
		if !ok {
			return nil, fmt.Errorf("cbjson: attribute %d has unknown kind %q: %w", a.ID, a.Kind, ErrBadDocument)
		}
		if err := reg.Define(attr.Def{
			ID: attr.ID(a.ID), Name: a.Name, Unit: a.Unit, Kind: kind,
			Lo: attr.Value(a.Lo), Hi: attr.Value(a.Hi), Symbols: a.Symbols,
		}); err != nil {
			return nil, fmt.Errorf("cbjson: define attribute %d: %w (%w)", a.ID, err, ErrBadDocument)
		}
	}
	b := casebase.NewBuilder(reg)
	for _, tj := range doc.Types {
		b.AddType(casebase.TypeID(tj.ID), tj.Name)
		for _, ij := range tj.Impls {
			target, ok := targetByName[ij.Target]
			if !ok {
				return nil, fmt.Errorf("cbjson: impl %d has unknown target %q: %w", ij.ID, ij.Target, ErrBadDocument)
			}
			// Sized once; nil when empty, as Encode writes it back.
			var ps []attr.Pair
			if len(ij.Attrs) > 0 {
				ps = make([]attr.Pair, len(ij.Attrs))
				for i, p := range ij.Attrs {
					ps[i] = attr.Pair{ID: attr.ID(p.ID), Value: attr.Value(p.Value)}
				}
			}
			b.AddImpl(casebase.TypeID(tj.ID), casebase.Implementation{
				ID: casebase.ImplID(ij.ID), Name: ij.Name, Target: target,
				Attrs: ps, Foot: ij.Foot,
			})
		}
	}
	cb, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("cbjson: rebuild: %w (%w)", err, ErrBadDocument)
	}
	return cb, nil
}
