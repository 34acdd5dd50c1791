package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// recordExpected computes, for every workload and every seed from
// recordLo to recordHi, the digest of each pool member on the workload's engine
// and on the other engine, fails if the two disagree, and writes the
// digests as JSON to path, keyed "workload/seed".
func recordExpected(path, dataDir string) error {
	ctx := context.Background()
	rec := map[string][]string{}
	for _, name := range workloadNames {
		for seed := int64(recordLo); seed <= recordHi; seed++ {
			w, err := buildWorkload(name, seed, dataDir)
			if err != nil {
				return err
			}
			own, err := w.referenceDigests(ctx, w.engine)
			if err != nil {
				return err
			}
			other, err := w.referenceDigests(ctx, otherEngine(w.engine))
			if err != nil {
				return err
			}
			for i := range own {
				if own[i] != other[i] {
					return fmt.Errorf("%s seed %d pool member %d: engines disagree (%s vs %s)", name, seed, i, own[i], other[i])
				}
			}
			rec[fmt.Sprintf("%s/%d", name, seed)] = own
			fmt.Fprintf(os.Stderr, "perfbench: recorded %s seed %d (%d digests, engines agree)\n", name, seed, len(own))
			if w.csv != "" {
				os.Remove(w.csv)
			}
		}
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSpread reads result lines (one JSON result object per line;
// other lines are skipped) and prints, per metric, the median, the
// quartiles as Python's statistics.quantiles(n=4) gives them, and the
// interquartile spread as a share of the median.
func printSpread(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	vals := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Metrics == nil {
			continue
		}
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-28s %4s %14s %14s %14s %8s\n", "metric", "n", "q1", "median", "q3", "spread")
	for _, k := range keys {
		q := quartiles(vals[k])
		fmt.Printf("%-28s %4d %14.6g %14.6g %14.6g %8.4f\n", k, len(vals[k]), q[0], q[1], q[2], spread(vals[k]))
	}
	return nil
}
