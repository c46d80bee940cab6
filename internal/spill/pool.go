// Package spill gives the out-of-core pipeline its bounded-memory
// machinery: a Pool that meters the live run bytes of one PE against a
// configured budget, page files that absorb run bytes the budget cannot
// hold (written behind the PE's back on the intra-PE work pool and paged
// back in sequentially ahead of the merge cursor), and the sorted-run file
// format the Step-4 drain writes instead of accumulating a result arena.
//
// Accounting model. The Pool counts bytes, it never blocks: callers
// Reserve what they keep or buffer and Release what they are through with,
// and a routed bucket stays resident only as far as Room() reaches. Peak()
// records the high-water mark — the "peak live bytes" channel of the run
// statistics. What is metered: the resident (still encoded) prefixes of
// the incoming runs, the one span each run cursor has paged back in, the
// pages pending or in flight on a write-behind chain and the run writer's
// page. What is not: the local input fragment, the one string each run
// cursor decodes into, and the exchange's buckets while the transport
// holds them (outgoing until sent, received until routed) — see the
// README's out-of-core section.
//
// Lifecycle. Every Pool owns a private temporary directory; page files
// live only there, and Close — idempotent, safe under defer on error and
// panic paths alike — removes the whole directory. A crashed or failed
// merge therefore never leaves orphaned spill pages behind.
package spill

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dss/internal/par"
	"dss/internal/trace"
)

// DefaultPageSize is the write-behind flush granularity of page files and
// the buffer bound of RunWriter: spill I/O happens in chunks of roughly
// this many bytes.
const DefaultPageSize = 256 << 10

// MinPageSize floors the budget-derived page size; pages below this would
// fragment spill I/O into uselessly small writes.
const MinPageSize = 4 << 10

// defaultPageSizeFor derives the page size from the budget when the caller
// did not pin one. Pending pages (a spill file's unflushed tail, the run
// writer's open page) stay reserved against the budget until they reach
// the page size, so the page must be a small fraction of the budget —
// with PageSize >= Budget, spilling could never release memory and the
// bound would degenerate to the in-RAM footprint. A sixteenth keeps the
// per-file pending overhead at ~6% of the budget while still batching I/O.
func defaultPageSizeFor(budget int64) int {
	ps := int64(DefaultPageSize)
	if budget > 0 && ps > budget/16 {
		ps = budget / 16
	}
	if ps < MinPageSize {
		ps = MinPageSize
	}
	return int(ps)
}

// Config parameterizes a Pool.
type Config struct {
	// Budget is the live-byte budget in bytes. 0 means unlimited: the pool
	// still meters (Peak stays meaningful) but Room never runs out.
	Budget int64
	// Dir is the parent directory for the pool's private page directory
	// (default: the OS temp dir).
	Dir string
	// PageSize overrides the write-behind flush granularity
	// (default DefaultPageSize).
	PageSize int
	// Create overrides page-file creation — a fault-injection seam for the
	// lifecycle tests. nil means os.Create.
	Create func(name string) (*os.File, error)
}

// Pool meters one PE's live run bytes against the budget and owns the
// PE's spill page files. The counters are atomic: the PE goroutine and the
// write-behind helpers update them concurrently.
type Pool struct {
	cfg     Config
	dir     string
	workers *par.Pool
	tr      *trace.Recorder // timeline recorder; nil = tracing off

	live    atomic.Int64
	peak    atomic.Int64
	written atomic.Int64
	read    atomic.Int64

	closeOnce sync.Once
	closeErr  error
	nfiles    atomic.Int64
}

// NewPool creates a pool with its private page directory under cfg.Dir.
func NewPool(cfg Config, workers *par.Pool) (*Pool, error) {
	if cfg.PageSize <= 0 {
		cfg.PageSize = defaultPageSizeFor(cfg.Budget)
	}
	dir, err := os.MkdirTemp(cfg.Dir, "dss-spill-*")
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return &Pool{cfg: cfg, dir: dir, workers: workers}, nil
}

// SetTrace installs the PE's timeline recorder (nil = tracing off): page
// flushes and page-ins become instants on the spill track with live-byte
// counter samples alongside. The recorder is mutex-protected, so the
// write-behind helpers record through it safely.
func (p *Pool) SetTrace(tr *trace.Recorder) { p.tr = tr }

// PageSize returns the spill I/O granularity.
func (p *Pool) PageSize() int { return p.cfg.PageSize }

// Reserve meters n freshly live bytes and updates the high-water mark.
func (p *Pool) Reserve(n int64) {
	if n == 0 {
		return
	}
	live := p.live.Add(n)
	if trace.LiveOn() {
		trace.Live.LiveBytes.Add(n)
	}
	for {
		peak := p.peak.Load()
		if live <= peak || p.peak.CompareAndSwap(peak, live) {
			return
		}
	}
}

// Release returns n bytes to the budget.
func (p *Pool) Release(n int64) {
	p.live.Add(-n)
	if trace.LiveOn() {
		trace.Live.LiveBytes.Add(-n)
	}
}

// Room returns how many more live bytes fit under the budget: 0 at or past
// it, and more than any bucket holds without one.
func (p *Pool) Room() int64 {
	if p.cfg.Budget <= 0 {
		return math.MaxInt64
	}
	return max(0, p.cfg.Budget-p.live.Load())
}

// Peak returns the high-water mark of metered live bytes.
func (p *Pool) Peak() int64 { return p.peak.Load() }

// BytesWritten returns the spill bytes written to page files so far.
func (p *Pool) BytesWritten() int64 { return p.written.Load() }

// BytesRead returns the spill bytes paged back in from disk so far.
func (p *Pool) BytesRead() int64 { return p.read.Load() }

// Close removes the pool's page directory and every page file in it. It is
// idempotent and safe while write-behind tasks are still in flight (their
// unlinked files vanish when the descriptors close), so callers install it
// with defer and get cleanup on success, error and panic paths alike.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() { p.closeErr = os.RemoveAll(p.dir) })
	return p.closeErr
}

// File is one spill page file: an append-only byte sequence flushed to
// disk page by page on the work pool, then read back sequentially. The
// appending and reading side must be one goroutine (the PE); only the
// page writes themselves run concurrently.
type File struct {
	p    *Pool
	f    *os.File
	werr error // first write-behind error (read/written by the PE via errMu)

	pending []byte        // bytes not yet handed to a page write
	woff    int64         // file offset where pending starts
	stable  atomic.Int64  // contiguously durable prefix of the file
	last    chan struct{} // done channel of the most recent page write
	group   *par.Group
	errMu   sync.Mutex

	finished bool
	busy     int64 // summed write-behind busy ns, reported by Finish
}

// CreateFile creates a new page file in the pool's directory.
func (p *Pool) CreateFile(label string) (*File, error) {
	name := filepath.Join(p.dir, fmt.Sprintf("%s-%d.page", label, p.nfiles.Add(1)))
	create := p.cfg.Create
	if create == nil {
		create = os.Create
	}
	f, err := create(name)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return &File{p: p, f: f, group: p.workers.Group()}, nil
}

func (f *File) setErr(err error) {
	f.errMu.Lock()
	if f.werr == nil {
		f.werr = err
	}
	f.errMu.Unlock()
}

func (f *File) loadErr() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.werr
}

// Append buffers b for the write-behind chain. The bytes are copied; the
// pool meters the copy until its page write completes.
func (f *File) Append(b []byte) {
	if len(b) == 0 {
		return
	}
	f.p.Reserve(int64(len(b)))
	f.pending = append(f.pending, b...)
	if len(f.pending) >= f.p.cfg.PageSize {
		f.flush()
	}
}

// flush hands the pending buffer to a write-behind task. The tasks form an
// ordered chain (each waits for its predecessor), so stable advances
// monotonically and a reader below stable never races a write.
func (f *File) flush() {
	buf := f.pending
	f.pending = nil
	off := f.woff
	f.woff += int64(len(buf))
	prev := f.last
	done := make(chan struct{})
	f.last = done
	f.group.Go(func() {
		defer close(done)
		if prev != nil {
			<-prev
		}
		if f.loadErr() == nil {
			if _, err := f.f.WriteAt(buf, off); err != nil {
				f.setErr(err)
			}
		}
		written := f.p.written.Add(int64(len(buf)))
		f.stable.Store(off + int64(len(buf)))
		f.p.Release(int64(len(buf)))
		if f.p.tr != nil {
			f.p.tr.Instant(trace.TrackSpill, "spill-flush", int64(len(buf)), 0)
			f.p.tr.Counter("spill_written", written)
			f.p.tr.Counter("spill_live", f.p.live.Load())
		}
		if trace.LiveOn() {
			trace.Live.SpillWritten.Add(int64(len(buf)))
		}
	})
}

// Size returns the total bytes appended so far.
func (f *File) Size() int64 { return f.woff + int64(len(f.pending)) }

// Finish flushes the tail page, waits for every outstanding write and
// returns the summed busy nanoseconds of the write-behind tasks — the
// spill-CPU share the caller bills to the measured channel. The file stays
// readable; the pool's Close removes it.
func (f *File) Finish() (busyNS int64, err error) {
	if !f.finished {
		if len(f.pending) > 0 {
			f.flush()
		}
		f.busy = f.group.Wait()
		f.finished = true
	}
	return f.busy, f.loadErr()
}

// ReadSpan returns up to max bytes of the file starting at off, paging
// durable bytes back in from disk and serving the still-buffered tail
// directly. It blocks only when off lands in a page write still in flight.
// The returned slice is immutable but may alias the pending buffer; it
// stays valid because neither pages nor the pending tail are ever
// overwritten. n == 0 with a nil error means off is at the current end.
func (f *File) ReadSpan(off int64, max int) ([]byte, error) {
	if err := f.loadErr(); err != nil {
		return nil, err
	}
	if off >= f.Size() {
		return nil, nil
	}
	if off >= f.woff {
		// The tail still lives in the pending buffer of this goroutine.
		tail := f.pending[off-f.woff:]
		if len(tail) > max {
			tail = tail[:max]
		}
		return tail, nil
	}
	stable := f.stable.Load()
	if off >= stable {
		// In a page write still in flight: wait for the chain to drain.
		<-f.last
		if err := f.loadErr(); err != nil {
			return nil, err
		}
		stable = f.stable.Load()
	}
	// Only the contiguously durable prefix may be read from disk; a span
	// reaching into a page write still in flight is clamped to it.
	n := stable - off
	if n > int64(max) {
		n = int64(max)
	}
	buf := make([]byte, n)
	m, err := f.f.ReadAt(buf, off)
	if err != nil {
		return nil, fmt.Errorf("spill: page read: %w", err)
	}
	read := f.p.read.Add(int64(m))
	if f.p.tr != nil {
		f.p.tr.Instant(trace.TrackSpill, "spill-pagein", int64(m), 0)
		f.p.tr.Counter("spill_read", read)
	}
	if trace.LiveOn() {
		trace.Live.SpillRead.Add(int64(m))
	}
	return buf[:m], nil
}

// Close closes the file descriptor (the pool's Close removes the file
// itself). Outstanding writes must have been waited for via Finish.
func (f *File) Close() error { return f.f.Close() }
