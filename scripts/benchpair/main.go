// Command benchpair summarises paired runs of the repository benchmark:
// given the driver result lines of a parent commit and of a change (one
// JSON object per run, pair i on line i of both files), it prints for
// every end-to-end metric both medians, the parent's quartile distance,
// how many pairs the change won, and a verdict against the metric's
// bound in BENCHMARK.json. scripts/benchpair.sh produces the files.
//
//	go run ./scripts/benchpair BENCHMARK.json <workload> parent.jsonl change.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type run struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// quantile interpolates linearly between order statistics.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func values(runs []run, metric string) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.Metrics[metric].Value
	}
	return vs
}

func failedShare(runs []run) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func main() {
	if len(os.Args) != 5 {
		fmt.Fprintln(os.Stderr, "usage: benchpair BENCHMARK.json <workload> parent.jsonl change.jsonl")
		os.Exit(2)
	}
	raw, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	parent, err := readRuns(os.Args[3])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	change, err := readRuns(os.Args[4])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	n := len(parent)
	if n == 0 || len(change) != n {
		fmt.Fprintf(os.Stderr, "need the same non-zero number of runs on both sides (parent %d, change %d)\n", n, len(change))
		os.Exit(1)
	}

	fmt.Printf("%s: %d pairs; failed share parent %.2g, change %.2g\n", os.Args[2], n, failedShare(parent), failedShare(change))
	fmt.Printf("%-26s %12s %12s %8s %9s %6s  %s\n", "metric", "parent med", "change med", "change", "parent q", "wins", "verdict")
	regressed := false
	for _, m := range c.EndToEnd {
		p, ch := values(parent, m.Name), values(change, m.Name)
		sign := 1.0 // > 0 means the change is better
		if m.Better == "lower" {
			sign = -1
		}
		wins, ties := 0, 0
		for i := range p {
			switch d := sign * (ch[i] - p[i]); {
			case d > 0:
				wins++
			case d == 0:
				ties++
			}
		}
		sp, sc := append([]float64(nil), p...), append([]float64(nil), ch...)
		sort.Float64s(sp)
		sort.Float64s(sc)
		// Every run of the change better than every run of the parent.
		allBetter := sc[0] > sp[n-1]
		if sign < 0 {
			allBetter = sc[n-1] < sp[0]
		}
		pm, cm := quantile(sp, 0.5), quantile(sc, 0.5)
		iqr := quantile(sp, 0.75) - quantile(sp, 0.25)
		rel, spread := 0.0, 0.0
		if pm != 0 {
			rel = (cm - pm) / pm
			spread = iqr / pm
			if spread < 0 {
				spread = -spread
			}
		}
		verdict := "within bound"
		switch {
		case cm == pm:
			verdict = "same"
		case sign*rel < -m.Bound:
			verdict = "WORSE than bound"
			regressed = true
		case 10*wins >= 9*(n-ties) && wins > 0 && sign*(cm-pm) > iqr:
			verdict = "gain"
		case spread > m.Bound && !allBetter:
			verdict = "unresolved (spread > bound)"
		}
		fmt.Printf("%-26s %12.6g %12.6g %+7.1f%% %8.1f%% %3d/%-2d  %s (bound %.0f%%, %s is better)\n",
			m.Name, pm, cm, 100*rel, 100*spread, wins, n-ties, verdict, 100*m.Bound, m.Better)
	}
	if failedShare(change) > failedShare(parent) {
		fmt.Println("FAILED SHARE ROSE")
		regressed = true
	}
	if regressed {
		os.Exit(1)
	}
}
