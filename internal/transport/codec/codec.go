// Package codec implements the wire-compression subsystem: a decorator
// that wraps any transport.Transport (or a whole Fabric) and runs every
// remote frame through a pluggable codec before it reaches the underlying
// substrate. The paper's algorithms already shrink the MODEL volume — LCP
// front-coding of the Step-3 string runs, Golomb-coded duplicate hashes —
// but until this layer the transports shipped every frame verbatim; the
// decorator shrinks what actually crosses the fabric while leaving the
// paper's accounting untouched.
//
// Accounting contract. The comm layer keeps billing raw payload bytes at
// its own Send/Recv boundary, exactly as before — model time and
// bytes-per-string are bit-identical no matter which codec (if any)
// decorates the transport. The decorator reports a SECOND channel, the
// post-codec wire bytes, into stats.PE.Wire via the binding the comm layer
// establishes (BindWireStats/SetWirePhase); figures can then show raw
// (model) bytes and wire bytes side by side.
//
// Frame format. Every remote frame is self-describing: one codec-id byte,
// then — for a compressed frame — the uvarint raw payload length and the
// codec's encoding. Frames smaller than the threshold (minSize), frames a
// codec cannot represent, and frames whose encoding fails to beat the raw
// form ship as id 0 (raw) with the payload verbatim after the id byte, so
// the decoder never needs out-of-band configuration and an incompressible
// workload pays exactly one byte per frame. Self-sends bypass the codec
// entirely (no bytes leave the PE — the same rule the raw accounting
// applies).
//
// Delivery semantics are inherited unchanged from the wrapped transport:
// payload isolation, per-pair non-overtaking order, tag-selective and
// any-source receives with the original arrival stamps. Decoding happens
// on the receiving PE's goroutine into pooled buffers (Release feeds them
// back), so steady-state traffic of pooled sizes allocates nothing.
package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Codec ids on the wire. Id 0 marks a raw (verbatim) frame and is not a
// selectable codec; real codecs start at 1. Wire compatibility: ids are
// part of the frame format and must never be reassigned.
const (
	idRaw   byte = 0
	idFlate byte = 1
	idLCP   byte = 2

	numIDs = 3
)

// minSize is the compression threshold: frames smaller than this many
// bytes ship raw. Tiny control messages (barrier signals,
// splitter counts) cost more to deflate than they save, and the threshold
// keeps their latency overhead at the one header byte.
const minSize = 64

// Codec turns raw payloads into wire encodings and back. Implementations
// are stateful scratch holders (reused flate streams, suffix arenas) and
// therefore confined to one endpoint; the registry hands out a fresh
// instance per endpoint.
type Codec interface {
	// ID returns the codec's wire id (written into every frame header).
	ID() byte
	// Name returns the codec's canonical flag name.
	Name() string
	// Encode appends an encoding of src to dst and returns the extended
	// slice with ok=true. ok=false means the codec cannot represent src
	// (e.g. the LCP codec on a frame that is not a string run); the caller
	// ships the frame raw then. Encode never fails on a representable
	// input.
	Encode(dst, src []byte) ([]byte, bool)
	// Decode appends the decoded payload — exactly rawLen bytes — to dst.
	Decode(dst, src []byte, rawLen int) ([]byte, error)
}

// factories maps canonical codec names to per-endpoint constructors. The
// nil entry is "none": the decorator frames but never compresses.
var factories = map[string]func() Codec{
	"none":  nil,
	"flate": newFlateCodec,
	"lcp":   newLCPCodec,
}

// Parse resolves a (case-insensitive) codec name to its canonical form.
// The empty string means "none".
func Parse(name string) (string, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if n == "" {
		n = "none"
	}
	if _, ok := factories[n]; !ok {
		return "", fmt.Errorf("codec: unknown codec %q (have %s)", name, Names())
	}
	return n, nil
}

// Names returns the selectable codec names, comma-separated — the single
// source for CLI usage strings.
func Names() string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		// "none" first, then alphabetical: the order of increasing effort.
		if names[i] == "none" || names[j] == "none" {
			return names[i] == "none"
		}
		return names[i] < names[j]
	})
	return strings.Join(names, ", ")
}

// Config selects the codec a decorator runs.
type Config struct {
	// Name is a codec name accepted by Parse ("" means none).
	Name string
}

// instance resolves the config into a codec instance (nil for none).
func (cfg Config) instance() (Codec, error) {
	name, err := Parse(cfg.Name)
	if err != nil {
		return nil, err
	}
	var c Codec
	if f := factories[name]; f != nil {
		c = f()
	}
	return c, nil
}

// flateCodec is the general-purpose LZ codec over compress/flate. One
// writer and one reader are reused across frames (Reset), so steady-state
// encode/decode does not allocate flate state.
type flateCodec struct {
	aw appendWriter
	fw *flate.Writer
	br bytes.Reader
	fr io.ReadCloser
}

func newFlateCodec() Codec {
	c := &flateCodec{}
	// BestSpeed keeps the codec off the critical path; the DN/CommonCrawl
	// workloads are redundant enough that higher levels buy little. The
	// level is fixed, which keeps frame encodings — and therefore the wire
	// byte totals — deterministic.
	c.fw, _ = flate.NewWriter(&c.aw, flate.BestSpeed)
	c.fr = flate.NewReader(&c.br)
	return c
}

func (c *flateCodec) ID() byte     { return idFlate }
func (c *flateCodec) Name() string { return "flate" }

func (c *flateCodec) Encode(dst, src []byte) ([]byte, bool) {
	c.aw.b = dst
	c.fw.Reset(&c.aw)
	if _, err := c.fw.Write(src); err != nil {
		c.aw.b = nil
		return dst, false
	}
	if err := c.fw.Close(); err != nil {
		c.aw.b = nil
		return dst, false
	}
	out := c.aw.b
	c.aw.b = nil
	return out, true
}

func (c *flateCodec) Decode(dst, src []byte, rawLen int) ([]byte, error) {
	c.br.Reset(src)
	if err := c.fr.(flate.Resetter).Reset(&c.br, nil); err != nil {
		return dst, err
	}
	start := len(dst)
	if cap(dst)-start < rawLen {
		dst = append(dst, make([]byte, rawLen)...)
	} else {
		dst = dst[:start+rawLen]
	}
	if _, err := io.ReadFull(c.fr, dst[start:]); err != nil {
		return dst, fmt.Errorf("codec: flate frame truncated: %w", err)
	}
	// The stream must hold exactly rawLen bytes.
	var probe [1]byte
	if n, _ := c.fr.Read(probe[:]); n != 0 {
		return dst, fmt.Errorf("codec: flate frame longer than declared raw length %d", rawLen)
	}
	return dst, nil
}

// appendWriter adapts a byte slice to io.Writer for the reused flate
// writer without per-frame buffer allocations.
type appendWriter struct{ b []byte }

func (a *appendWriter) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}
