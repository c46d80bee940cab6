package codec

import (
	"encoding/binary"
	"fmt"
	"time"

	"dss/internal/stats"
	"dss/internal/trace"
	"dss/internal/transport"
)

// maxRawLen bounds the declared raw length of a compressed frame; it
// mirrors the TCP backend's frame limit.
const maxRawLen = 1<<31 - 1

// Endpoint decorates a transport endpoint with the wire codec. It
// implements transport.Transport and inherits the wrapped endpoint's
// delivery semantics; only the bytes handed to (and received from) the
// inner substrate change. Like every endpoint it is confined to the
// goroutine running its PE.
type Endpoint struct {
	inner transport.Transport
	rank  int
	codec Codec // nil for "none": frame, but never compress
	decs  [numIDs]Codec
	pool  transport.Pool

	// Wire metering, bound by the comm layer (BindWireStats). pe is nil
	// when the endpoint is used without accounting (tests, raw tools).
	pe *stats.PE
	tr *trace.Recorder // timeline recorder, bound by the comm layer; nil = off
}

// Wrap decorates a single endpoint. This is the SPMD entry point: wrap
// the tcp.ConnectConfig endpoint before handing it to the algorithm layer.
func Wrap(t transport.Transport, cfg Config) (*Endpoint, error) {
	c, err := cfg.instance()
	if err != nil {
		return nil, err
	}
	return newEndpoint(t, c), nil
}

func newEndpoint(t transport.Transport, c Codec) *Endpoint {
	e := &Endpoint{inner: t, rank: t.Rank(), codec: c}
	// Decoders for every known id: frames are self-describing, and a
	// peer's encoder may fall back per frame (or, in principle, run a
	// different codec than ours).
	e.decs[idFlate] = newFlateCodec()
	e.decs[idLCP] = newLCPCodec()
	return e
}

// BindWireStats directs the endpoint's metering of the wire bytes it sends
// into the given accounting state. Called by the comm layer when it adopts
// the endpoint; frames sent while unbound are not metered.
func (e *Endpoint) BindWireStats(pe *stats.PE) { e.pe = pe }

// BindTrace installs the PE's timeline recorder so post-codec frame sizes
// appear as wire-send/wire-recv instants next to the raw-volume events the
// comm layer records. Bound by comm.SetTrace; nil keeps tracing off.
func (e *Endpoint) BindTrace(tr *trace.Recorder) { e.tr = tr }

// Depart departs the wrapped endpoint, if it can: the codec holds no
// frames of its own, so everything this rank sent is already below it.
func (e *Endpoint) Depart() {
	if d, ok := e.inner.(transport.Departer); ok {
		d.Depart()
	}
}

// Rank returns the wrapped endpoint's rank.
func (e *Endpoint) Rank() int { return e.inner.Rank() }

// P returns the fabric size.
func (e *Endpoint) P() int { return e.inner.P() }

// Alloc draws a raw-payload buffer from the decorator's own pool: Give
// consumes it here (it is encoded, not forwarded), so it never needs to be
// one of the wrapped endpoint's.
func (e *Endpoint) Alloc(n int) []byte { return e.pool.Get(n) }

// Send gives a copy of data to dst.
func (e *Endpoint) Send(dst, tag int, data []byte) { transport.SendCopy(e, dst, tag, data) }

// Give encodes buf into a frame allocated from the wrapped endpoint, gives
// that frame away and releases buf. Self-sends bypass the codec entirely —
// no bytes leave the PE, matching the raw accounting rule — and give buf
// straight through.
func (e *Endpoint) Give(dst, tag int, buf []byte) {
	if dst == e.rank {
		e.inner.Give(dst, tag, buf)
		return
	}
	frame := e.encodeFrame(buf)
	n := len(frame)
	e.inner.Give(dst, tag, frame)
	e.pool.Put(buf)
	if e.pe != nil {
		e.pe.WireSent += int64(n)
	}
	e.tr.Instant(trace.TrackControl, "wire-send", int64(n), int64(dst))
	if trace.LiveOn() {
		trace.Live.WireSent.Add(int64(n))
	}
}

// encodeFrame builds the self-describing wire frame for one payload in a
// buffer of the wrapped endpoint, ready to be given to it.
func (e *Endpoint) encodeFrame(data []byte) []byte {
	if e.codec != nil && len(data) >= minSize {
		buf := e.inner.Alloc(len(data) + 1 + binary.MaxVarintLen32)[:0]
		buf = append(buf, e.codec.ID())
		buf = binary.AppendUvarint(buf, uint64(len(data)))
		if enc, ok := e.codec.Encode(buf, data); ok {
			if len(enc) < 1+len(data) {
				return enc
			}
			e.inner.Release(enc) // encoding lost to the raw form: ship raw
		} else {
			e.inner.Release(buf)
		}
	}
	frame := e.inner.Alloc(1 + len(data))
	frame[0] = idRaw
	copy(frame[1:], data)
	return frame
}

// Recv receives one frame and returns its decoded payload.
func (e *Endpoint) Recv(src, tag int) []byte {
	data := e.inner.Recv(src, tag)
	if src == e.rank {
		return data
	}
	return e.decodeFrame(src, data)
}

// RecvAny receives the earliest-arrived matching frame from any of the
// listed sources and returns its decoded payload. The arrival stamp is the
// wrapped transport's delivery time — decoding happens at pickup, on this
// PE's goroutine, and must not shift the overlap model's arrival order.
func (e *Endpoint) RecvAny(srcs []int, tag int) (int, []byte, time.Time) {
	src, data, arrived := e.inner.RecvAny(srcs, tag)
	if src == e.rank {
		return src, data, arrived
	}
	return src, e.decodeFrame(src, data), arrived
}

// decodeFrame records the frame on the timeline and the live gauge and
// restores the raw payload. Corrupt frames are infrastructure errors and
// panic, like every transport delivery failure.
func (e *Endpoint) decodeFrame(src int, frame []byte) []byte {
	e.tr.Instant(trace.TrackControl, "wire-recv", int64(len(frame)), int64(src))
	if trace.LiveOn() {
		trace.Live.WireRecv.Add(int64(len(frame)))
	}
	if len(frame) == 0 {
		panic(fmt.Sprintf("transport/codec: rank %d: empty frame from rank %d", e.rank, src))
	}
	id := frame[0]
	if id == idRaw {
		// The payload sits behind the id byte; hand out the sub-slice
		// instead of copying (Release re-pools it by its capacity class).
		return frame[1:]
	}
	var dec Codec
	if int(id) < numIDs {
		dec = e.decs[id]
	}
	if dec == nil {
		panic(fmt.Sprintf("transport/codec: rank %d: unknown codec id %d from rank %d", e.rank, id, src))
	}
	rawLen, n := binary.Uvarint(frame[1:])
	if n <= 0 || rawLen > maxRawLen {
		panic(fmt.Sprintf("transport/codec: rank %d: corrupt frame header from rank %d", e.rank, src))
	}
	out := e.pool.Get(int(rawLen))[:0]
	out, err := dec.Decode(out, frame[1+n:], int(rawLen))
	if err != nil || len(out) != int(rawLen) {
		panic(fmt.Sprintf("transport/codec: rank %d: %s frame from rank %d does not decode to %d bytes: %v",
			e.rank, dec.Name(), src, rawLen, err))
	}
	// The compressed frame is fully consumed; recycle it for the wrapped
	// endpoint's own buffers (receive frames, encoded frames).
	e.inner.Release(frame)
	return out
}

// Release returns payload buffers to the decorator's pool, where future
// decodes and frame encodings draw from. Buffers may have come from either
// layer (decoded payloads from this pool, raw pass-through frames from the
// wrapped endpoint's); pools are interchangeable by design.
func (e *Endpoint) Release(bufs ...[]byte) {
	for _, b := range bufs {
		e.pool.Put(b)
	}
}

// Close tears down the wrapped endpoint.
func (e *Endpoint) Close() error { return e.inner.Close() }

// fabric decorates every endpoint of a wrapped fabric.
type fabric struct {
	inner transport.Fabric
	eps   []*Endpoint
}

// WrapFabric decorates all endpoints of a fabric with the configured
// codec. Each endpoint gets its own codec instance (codecs hold per-
// endpoint scratch), created eagerly so repeated Endpoint calls return the
// same decorated instance.
func WrapFabric(f transport.Fabric, cfg Config) (transport.Fabric, error) {
	p := f.P()
	w := &fabric{inner: f, eps: make([]*Endpoint, p)}
	for rank := 0; rank < p; rank++ {
		c, err := cfg.instance()
		if err != nil {
			return nil, err
		}
		w.eps[rank] = newEndpoint(f.Endpoint(rank), c)
	}
	return w, nil
}

// P returns the number of endpoints.
func (f *fabric) P() int { return f.inner.P() }

// Endpoint returns the decorated endpoint of the given rank. It takes the
// wrapped fabric's endpoint again first, as comm.Machine.Run does at the
// start of every run, so a fabric that marks departed ranks
// (transport/local) clears the mark left by the previous run; the
// decorator keeps the endpoint it wrapped, which is equivalent.
func (f *fabric) Endpoint(rank int) transport.Transport {
	f.inner.Endpoint(rank)
	return f.eps[rank]
}

// Close tears down the wrapped fabric.
func (f *fabric) Close() error { return f.inner.Close() }
