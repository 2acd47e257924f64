package main

// Self-tests of the benchmark itself, at a tiny input size:
//
//	cd perfbench && go test .

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	alae "repro"
	"repro/internal/exp"
)

// declared reads the metric lists of BENCHMARK.json.
func declared(t *testing.T) (e2e, layer []metricDef) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	return e2e, layer
}

// tinyRun runs one workload at 2% of its size for a fraction of a
// second and returns the parsed result line and the run's workdir.
func tinyRun(t *testing.T, workload string, trace int) (resultLine, string) {
	t.Helper()
	var out bytes.Buffer
	dir := t.TempDir()
	if code := run(&config{workload: workload, seed: 7}, 0.3, trace, 0.02, dir, &out); code != 0 {
		t.Fatalf("%s trace %d: exit code %d\n%s", workload, trace, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace %d: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res, dir
}

func TestEveryWorkloadPrintsTheDeclaredMetrics(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range sortedKeys(runners) {
		for trace, want := range [][]metricDef{e2e, layer} {
			res, _ := tinyRun(t, w, trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: missing %s", w, trace, d.name)
				case got.Unit != d.unit:
					t.Errorf("%s trace %d: %s in %q, declared %q", w, trace, d.name, got.Unit, d.unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, d.name, got.Value)
				}
			}
		}
	}
}

func TestCheckerRejectsCorruptedHits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	text := exp.DNAWorkload(6000, 150, 0, 5).Text
	members := splitMembers(text, 3)
	st, err := alae.NewStore(records(members), alae.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := homologousQuery(text, 240, rng)
	res, err := st.Search(q, alae.SearchOptions{})
	if err != nil || len(res.Hits) < 10 {
		t.Fatalf("search: %v, %d hits", err, len(res.Hits))
	}
	good := storeAnswer(res)
	corrupt := func(edit func([]hitKey) []hitKey) answer {
		return answer{h: res.Threshold, d: digestKeys(edit(storeHitKeys(res.Hits)))}
	}
	rescored := corrupt(func(k []hitKey) []hitKey { k[3].score++; return k })
	dropped := corrupt(func(k []hitKey) []hitKey { return k[1:] })
	moved := corrupt(func(k []hitKey) []hitKey { k[0].tEnd++; return k })

	task := &checkTask{label: "self-test", query: q, h: res.Threshold, members: members, gotoh: true,
		answers: []answer{good, rescored, dropped, moved}}
	fails, err := task.verify(newRefIndexes(), alae.DefaultDNAScheme)
	if fails != 3 || err == nil {
		t.Fatalf("verify: %d failures (%v), want the 3 corrupted answers rejected", fails, err)
	}
	for k, want := range []bool{false, true, true, true} {
		if task.answers[k].bad != want {
			t.Errorf("answer %d: bad=%v, want %v", k, task.answers[k].bad, want)
		}
	}

	// A truncated HTTP answer: the top 5 hits and the total.
	starts := memberStarts(members)
	top := topK(storeHitKeys(res.Hits), 5, starts)
	http := answer{h: res.Threshold, d: digestKeys(top), total: len(res.Hits), topK: 5}
	wrongTotal := http
	wrongTotal.total++
	task = &checkTask{label: "self-test top-K", query: q, h: res.Threshold, members: members, starts: starts,
		answers: []answer{http, wrongTotal}}
	if fails, _ := task.verify(newRefIndexes(), alae.DefaultDNAScheme); fails != 1 || !task.answers[1].bad {
		t.Fatalf("top-K verify: %d failures, want only the wrong total rejected", fails)
	}
}

func TestSpansNest(t *testing.T) {
	for _, w := range []string{"dna-long", "serve-mix", "store-churn"} {
		_, dir := tinyRun(t, w, 1)
		f, err := os.Open(filepath.Join(dir, "spans-"+w+"-seed7.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatal(err)
			}
			spans = append(spans, s)
		}
		f.Close()
		if len(spans) < 2 {
			t.Fatalf("%s: %d spans", w, len(spans))
		}
		if err := checkNesting(spans); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		for id, d := range selfTimes(spans) {
			if d < 0 {
				t.Errorf("%s: span %d has self time %v", w, id, d)
			}
		}
	}

	bad := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Op: 1, Name: "child", Start: 5, End: 12},
	}
	if checkNesting(bad) == nil {
		t.Error("a child ending after its parent passed the nesting check")
	}
	ok := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 4, End: 9},
	}
	if err := checkNesting(ok); err != nil {
		t.Error(err)
	}
	if self := selfTimes(ok)[1]; self != 2 {
		t.Errorf("root self time %v, want 2", self)
	}
}

// storeHitKeys reduces a store answer's hits to member coordinates.
func storeHitKeys(hits []alae.SeqHit) []hitKey {
	out := make([]hitKey, len(hits))
	for i, h := range hits {
		out[i] = hitKey{member: h.Name, tEnd: h.LocalTEnd, qEnd: h.QEnd, score: h.Score}
	}
	return out
}
