package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// minPairs is the fewest parent/change pairs that can support a claim
// of a gain.
const minPairs = 10

// compare prints one row per workload and end-to-end metric of two
// result sets (--record files of the parent and the change): each
// side's median and quartiles, the bound and a verdict.
func compare(out io.Writer, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent q1|med|q3\tchange q1|med|q3\tbound\tpairs\tverdict")
	for _, w := range workloadNames {
		a, b := parent[w], change[w]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, d := range endToEnd {
			xs, ys := values(a, d.Name), values(b, d.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			aq1, am, aq3 := quartiles(xs)
			bq1, bm, bq3 := quartiles(ys)
			fmt.Fprintf(tw, "%s\t%s\t%.4g|%.4g|%.4g\t%.4g|%.4g|%.4g\t%.2f\t%d\t%s\n",
				w, d.Name, aq1, am, aq3, bq1, bm, bq3, d.Bound, min(len(xs), len(ys)), verdict(d, xs, ys))
		}
	}
	return tw.Flush()
}

// readRecords groups a --record file's untraced runs by workload, in
// file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(rs []record, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// verdict judges a change (ys) against its parent (xs) on one metric:
//
//   - better: at least minPairs pairs (the i-th run of each side), the
//     change wins at least nine tenths of them (ties count for
//     neither), and the medians differ by more than the parent's
//     interquartile distance;
//   - when either side's spread is wider than the bound, the metric is
//     unresolved, unless every change run beats every parent run
//     (unchanged: it cannot be a regression) or loses to every parent
//     run by more than the bound (worse);
//   - worse: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged otherwise.
func verdict(d metricDef, xs, ys []float64) string {
	// gain > 0 means y is better than x.
	gain := func(x, y float64) float64 {
		if d.Better == "higher" {
			return y - x
		}
		return x - y
	}
	aq1, am, aq3 := quartiles(xs)
	_, bm, _ := quartiles(ys)
	pairs := min(len(xs), len(ys))
	wins := 0
	for i := 0; i < pairs; i++ {
		if gain(xs[i], ys[i]) > 0 {
			wins++
		}
	}
	if pairs >= minPairs && float64(wins) >= 0.9*float64(pairs) && gain(am, bm) > math.Abs(aq3-aq1) {
		return "better"
	}
	worseBy := -gain(am, bm) / math.Abs(am)
	if spread(xs) > d.Bound || spread(ys) > d.Bound {
		allBetter, allWorse := true, true
		for _, x := range xs {
			for _, y := range ys {
				allBetter = allBetter && gain(x, y) > 0
				allWorse = allWorse && -gain(x, y) > d.Bound*math.Abs(x)
			}
		}
		switch {
		case allBetter:
			return "unchanged"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	if worseBy > d.Bound {
		return "worse"
	}
	return "unchanged"
}
