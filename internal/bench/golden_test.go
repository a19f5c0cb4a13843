package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden.json from this tree")

const goldenPath = "testdata/figures.golden.json"

// goldenFigures regenerates what the golden file records: the default
// `madbench -json` set plus `-fig stripe` and `-fig rdma`. The coll, llm
// and async figures stay out: fault plans and the progress engine's
// worker pool make them depend on goroutine interleaving.
func goldenFigures() ([]Result, error) {
	res, err := AllFigures()
	if err != nil {
		return nil, err
	}
	abl, err := AllAblations()
	if err != nil {
		return nil, err
	}
	res = append(res, abl...)
	stripe, err := StripeScaling("tcp", []int{1, 2, 4}, 0)
	if err != nil {
		return nil, err
	}
	rdma, err := RDMACrossover()
	if err != nil {
		return nil, err
	}
	return append(res, stripe, rdma), nil
}

// TestFiguresGolden is the "bit-identical virtual time" gate: every point
// and anchor of the deterministic figures must equal the committed value
// exactly. A change that is meant to move them reruns with -update and
// reviews the diff of the golden file.
func TestFiguresGolden(t *testing.T) {
	got, err := goldenFigures()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	flatten := func(res []Result) (keys []string, vals map[string]string) {
		vals = map[string]string{}
		add := func(k, v string) {
			keys = append(keys, k)
			vals[k] = v
		}
		for _, r := range res {
			for _, s := range r.Series {
				for _, p := range s.Points {
					add(fmt.Sprintf("%s/%s@%d", r.ID, s.Name, p.Size), fmt.Sprintf("%d ns", int64(p.OneWay)))
				}
			}
			for _, a := range r.Anchors {
				add(r.ID+"/"+a.Name, fmt.Sprintf("%v %s", a.Measured, a.Unit))
			}
		}
		return keys, vals
	}
	wantKeys, wantVals := flatten(want)
	gotKeys, gotVals := flatten(got)
	for _, k := range wantKeys {
		if v, ok := gotVals[k]; !ok {
			t.Errorf("%s: in the golden file, no longer produced", k)
		} else if v != wantVals[k] {
			t.Errorf("%s: %s, golden %s", k, v, wantVals[k])
		}
	}
	for _, k := range gotKeys {
		if _, ok := wantVals[k]; !ok {
			t.Errorf("%s: produced, not in the golden file", k)
		}
	}
	if t.Failed() {
		t.Log("if the move is intended: go test ./internal/bench -run TestFiguresGolden -update")
	}
}
