package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// verdict is how one metric of one workload compares between two runs.
type verdict int

const (
	agrees     verdict = iota
	unresolved         // the spread of one side's own samples exceeds the bound
	differs
)

func (v verdict) String() string {
	return [...]string{"ok", "unresolved", "DIFFERS"}[v]
}

// relSpread is the distance between the quartiles as a share of the median.
func relSpread(m metric) float64 {
	if len(m.Samples) < 2 || m.Value == 0 {
		return 0
	}
	q1, q3 := quartiles(m.Samples)
	return (q3 - q1) / math.Abs(m.Value)
}

// compareMetric judges run b against run a by the metric's declared bound. An
// exact metric (no samples: a count the program reports) must be bit-equal.
func compareMetric(d declared, a, b metric) verdict {
	if len(a.Samples) == 0 && len(b.Samples) == 0 {
		if a.Value == b.Value {
			return agrees
		}
		return differs
	}
	if a.Value == 0 || math.Abs(b.Value-a.Value)/math.Abs(a.Value) > d.Bound {
		return differs
	}
	if relSpread(a) > d.Bound || relSpread(b) > d.Bound {
		return unresolved
	}
	return agrees
}

// compareResults prints both sides of every end-to-end metric and returns
// whether all of them agree. Results from different host shapes are refused:
// a two-core and a four-core run differ for reasons no bound describes.
func compareResults(spec *contract, a, b *result) (bool, error) {
	if !a.Host.comparable(b.Host) {
		return false, fmt.Errorf("%s: refusing to compare host shapes %+v and %+v", a.Workload, a.Host, b.Host)
	}
	fmt.Printf("workload %s\n", a.Workload)
	ok := true
	for _, d := range spec.EndToEnd {
		ma, oka := a.metric(d.Name)
		mb, okb := b.metric(d.Name)
		if !oka || !okb {
			return false, fmt.Errorf("%s: metric %s is missing from a result", a.Workload, d.Name)
		}
		v := compareMetric(d, ma, mb)
		ok = ok && v != differs
		fmt.Printf("  %-20s %-9s a=%-12.6g b=%-12.6g bound=%g %s\n    a: %s\n    b: %s\n",
			d.Name, d.Unit, ma.Value, mb.Value, d.Bound, v, ma.summary(), mb.summary())
	}
	if a.Failed > 0 || b.Failed > 0 {
		fmt.Printf("  failed operations: a=%d b=%d\n", a.Failed, b.Failed)
		ok = false
	}
	return ok, nil
}

// agreeMain runs the full set twice with the same code and seed and checks
// that the benchmark agrees with itself within its own bounds.
func agreeMain(ctx context.Context, spec *contract, opt options, l *launcher) (int, error) {
	opt.trace = false
	var sets [2][]*result
	for round := range sets {
		for _, w := range workloads {
			res, err := runWorkload(ctx, w, opt, l)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			sets[round] = append(sets[round], res)
		}
	}
	allOK := true
	for i := range workloads {
		ok, err := compareResults(spec, sets[0][i], sets[1][i])
		if err != nil {
			return 2, err
		}
		allOK = allOK && ok
	}
	if !allOK {
		fmt.Println("the two sets of runs do NOT agree within the bounds")
		return 1, nil
	}
	fmt.Println("the two sets of runs agree within the bounds")
	return 0, nil
}

// compareWithSaved judges res against a result file written by
// (*result).save for the same workload, seed and scale.
func compareWithSaved(spec *contract, path string, res *result) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var earlier result
	if err := json.Unmarshal(data, &earlier); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	if earlier.Workload != res.Workload || earlier.Seed != res.Seed || earlier.Scale != res.Scale || earlier.Trace {
		return false, fmt.Errorf("%s holds %s seed %d scale %g (trace %v), not this run",
			path, earlier.Workload, earlier.Seed, earlier.Scale, earlier.Trace)
	}
	return compareResults(spec, &earlier, res)
}
