package stringsort

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dss/internal/transport/tcp"
)

// traceDoc is the Chrome trace-event JSON shape the exporter writes.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Args map[string]any `json:"args"`
}

// phaseNames are the algorithm phases every traced PDMS PE must show as
// begin spans on its control track (stats.Phase.String() of the five
// non-idle phases).
var phaseNames = []string{"local_sort", "dup_detect", "partition", "exchange", "merge"}

func loadTrace(t *testing.T, path string) traceDoc {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("trace has no events")
	}
	return doc
}

// phaseSpans counts, per pid, the phase names seen as B events on the
// control track (tid 0).
func phaseSpans(doc traceDoc) map[int]map[string]int {
	spans := make(map[int]map[string]int)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "B" || ev.TID != 0 {
			continue
		}
		if spans[ev.PID] == nil {
			spans[ev.PID] = make(map[string]int)
		}
		spans[ev.PID][ev.Name]++
	}
	return spans
}

func countEvents(doc traceDoc, name, ph string) int {
	n := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == name && ev.Ph == ph {
			n++
		}
	}
	return n
}

// TestSortTraceTimeline runs an in-process PDMS sort with tracing and
// checks the exported timeline end to end: valid JSON, one process track
// per PE with all five phase spans, the Step-3 exchange's post/done and
// billing instants, the page traffic of the budgeted landing (512-byte
// pages, so every PDMS bucket is flushed and paged back in), and balanced
// begin/end pairs.
func TestSortTraceTimeline(t *testing.T) {
	const p = 4
	inputs := testInputs(p, 2000)
	path := filepath.Join(t.TempDir(), "trace.json")
	setPageSize(t, 512)
	cfg := Config{Algorithm: PDMS, MemBudget: 8 << 10, SpillDir: t.TempDir()}
	untraced, err := Sort(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = path
	res, err := Sort(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ModelTime != untraced.Stats.ModelTime ||
		res.Stats.BytesSent != untraced.Stats.BytesSent ||
		res.Stats.Messages != untraced.Stats.Messages {
		t.Errorf("tracing changed the deterministic stats: traced (%v, %d, %d) vs untraced (%v, %d, %d)",
			res.Stats.ModelTime, res.Stats.BytesSent, res.Stats.Messages,
			untraced.Stats.ModelTime, untraced.Stats.BytesSent, untraced.Stats.Messages)
	}

	doc := loadTrace(t, path)
	spans := phaseSpans(doc)
	for pe := 0; pe < p; pe++ {
		for _, name := range phaseNames {
			if spans[pe][name] == 0 {
				t.Errorf("PE %d: no %q phase span on the control track", pe, name)
			}
		}
	}
	for _, want := range []struct{ name, ph string }{
		{"IAlltoallv post", "i"}, // the staged Step-3 exchange
		{"IAlltoallv done", "i"},
		{"send", "i"},         // raw billing instants
		{"spill-flush", "i"},  // a routed page written behind the PE's back
		{"spill-pagein", "i"}, // ... and paged back in ahead of the merge cursor
	} {
		if countEvents(doc, want.name, want.ph) == 0 {
			t.Errorf("no %q (%s) events in the trace", want.name, want.ph)
		}
	}
	// Every track must close what it opens (the ring did not wrap here).
	type track struct{ pid, tid int }
	depth := make(map[track]int)
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B":
			depth[track{ev.PID, ev.TID}]++
		case "E":
			k := track{ev.PID, ev.TID}
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("unbalanced E on pid=%d tid=%d", ev.PID, ev.TID)
			}
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Errorf("pid=%d tid=%d: %d unclosed spans", k.pid, k.tid, d)
		}
	}
}

// TestSortTraceWorkerTracks asserts the par-layer attribution: with a
// wide pool the trace carries named worker tracks with busy spans (the
// Step-4 merge, a one-task fork, on worker 0's track).
func TestSortTraceWorkerTracks(t *testing.T) {
	inputs := testInputs(4, 400)
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := Sort(inputs, Config{
		Algorithm: MS,
		Cores:     4,
		Trace:     path,
	}); err != nil {
		t.Fatal(err)
	}
	doc := loadTrace(t, path)
	workerSpans := 0
	workerTracks := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "B" && ev.TID >= 2 { // TrackWorker0 = 2
			workerSpans++
		}
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if n, ok := ev.Args["name"].(string); ok {
				workerTracks[n] = true
			}
		}
	}
	if workerSpans == 0 {
		t.Errorf("no worker-track busy spans at cores=4")
	}
	if !workerTracks["worker 0"] {
		t.Errorf("no 'worker 0' thread_name metadata; tracks: %v", workerTracks)
	}
}

// TestSortTraceSpill asserts the spill hooks: a run forced out of core
// must put spill-flush/spill-pagein instants and counter samples on the
// spill track.
func TestSortTraceSpill(t *testing.T) {
	inputs := testInputs(4, 2000)
	path := filepath.Join(t.TempDir(), "trace.json")
	res, err := Sort(inputs, Config{
		Algorithm: MS,
		MemBudget: 8 << 10,
		SpillDir:  t.TempDir(),
		Trace:     path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PEs) > 0 && res.PEs[0].RunFile != "" {
		defer os.RemoveAll(filepath.Dir(res.PEs[0].RunFile))
	}
	if res.Stats.SpillBytesWritten == 0 {
		t.Fatalf("8 KiB budget did not engage on a ~%d KiB/PE input", 2000*30/1024)
	}
	doc := loadTrace(t, path)
	if countEvents(doc, "spill-flush", "i") == 0 {
		t.Errorf("spilling run recorded no spill-flush instants")
	}
	if countEvents(doc, "spill_written", "C") == 0 {
		t.Errorf("spilling run recorded no spill_written counter samples")
	}
}

// TestRunPETraceAggregation is the cross-process aggregation path, run
// the way dss-worker runs it: every rank of a 4-PE loopback TCP fabric
// calls RunPE with Config.Trace set, the buffers are gathered with
// clock-offset estimation, and rank 0 alone writes one merged file that
// must show all five phase spans for every pid.
func TestRunPETraceAggregation(t *testing.T) {
	const p = 4
	inputs := testInputs(p, 300)
	fab, err := tcp.NewLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	path := filepath.Join(t.TempDir(), "trace.json")
	outs := openOuts(t, p, 0, "")
	var wg sync.WaitGroup
	errs := make([]error, p)
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = RunPE(fab.Endpoint(rank), inputs[rank], Config{
				Algorithm: PDMS,
				Trace:     path,
			}, outs[rank])
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	doc := loadTrace(t, path)
	spans := phaseSpans(doc)
	for pe := 0; pe < p; pe++ {
		for _, name := range phaseNames {
			if spans[pe][name] == 0 {
				t.Errorf("PE %d: no %q phase span in the merged cross-process trace", pe, name)
			}
		}
	}
	// Process metadata must name all four ranks.
	procs := make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.PID] = true
		}
	}
	for pe := 0; pe < p; pe++ {
		if !procs[pe] {
			t.Errorf("no process_name metadata for PE %d", pe)
		}
	}
}

// testInputs builds a deterministic distributed input of n strings per PE.
func testInputs(p, n int) [][][]byte {
	inputs := make([][][]byte, p)
	for pe := 0; pe < p; pe++ {
		for i := 0; i < n; i++ {
			inputs[pe] = append(inputs[pe],
				[]byte(fmt.Sprintf("trace-%03d-%04d-%s", (pe*7+i*13)%997, i, "padpadpad")))
		}
	}
	return inputs
}
