package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	alae "repro"
	"repro/internal/exp"
	"repro/internal/seq"
	"repro/internal/serve"
)

// serveMaxHits is serve.Config's default MaxHits: a response carries at
// most this many hits (the top ones) beside its total_hits.
const serveMaxHits = 1000

// splitMembers cuts text into k members of near-equal length.
func splitMembers(text []byte, k int) []member {
	out := make([]member, k)
	for i := range out {
		lo, hi := i*len(text)/k, (i+1)*len(text)/k
		out[i] = member{name: fmt.Sprintf("m%02d", i), seq: text[lo:hi]}
	}
	return out
}

// memberStarts gives each member's global start in the store's
// separator-framed concatenation (live order).
func memberStarts(members []member) map[string]int {
	starts := make(map[string]int, len(members))
	pos := 0
	for _, m := range members {
		starts[m.name] = pos
		pos += len(m.seq) + 1
	}
	return starts
}

// serveQueries draws the request stream in blocks with the spec's
// exact composition: per block, 3 new queries per unit of length weight
// (12, 9, 6 and 3 of 150, 300, 600 and 1200 bp for weights 4:3:2:1)
// and as many repeats as make the spec's repeat fraction, in a
// seed-drawn order. A repeat is an earlier query drawn Zipf-like
// (earliest most popular). Fixing the composition keeps the latency
// median off the luck of the mix, which sits between the modes of the
// short and long classes. It returns the distinct queries and, per
// request, the index of its query.
func serveQueries(sp *spec, text []byte, nReq int, rng *rand.Rand) (distinct [][]byte, reqs []int) {
	const repeat = -1
	var block []int // query length classes, or repeat
	for k, w := range sp.QueryWeights {
		for i := 0; i < 3*w; i++ {
			block = append(block, k)
		}
	}
	repeats := int(float64(len(block))*sp.RepeatFrac/(1-sp.RepeatFrac) + 0.5)
	for i := 0; i < repeats; i++ {
		block = append(block, repeat)
	}
	reqs = make([]int, 0, nReq)
	for len(reqs) < nReq {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			if k == repeat && len(distinct) > 0 {
				z := rand.NewZipf(rng, 1.2, 1, uint64(len(distinct)-1))
				reqs = append(reqs, int(z.Uint64()))
				continue
			}
			if k == repeat {
				k = 0 // nothing to repeat yet: the stream opens with a new query
			}
			distinct = append(distinct, homologousQuery(text, sp.scaled(sp.QueryLens[k]), rng))
			reqs = append(reqs, len(distinct)-1)
		}
	}
	return distinct, reqs[:nReq]
}

// homologousQuery is a random query of length qlen carrying one
// mutated copy of a 100-residue text segment (the conserved-segment
// length exp.DNAWorkload uses), the shape of a short database query.
func homologousQuery(text []byte, qlen int, rng *rand.Rand) []byte {
	mut := seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}
	return seq.HomologousQueries(seq.DNA, text, 1, qlen, min(100, qlen/2), qlen, mut, rng)[0]
}

// httpResult is one POST /search as the client saw it.
type httpResult struct {
	due, sent, done time.Time
	status          int
	bytes           int
	elapsedMS       float64 // the response's own elapsed_ms
	ans             answer
	err             error
}

// postSearch sends one query and reduces the response for checking.
func postSearch(client *http.Client, url string, q []byte) httpResult {
	var r httpResult
	body, _ := json.Marshal(serve.SearchRequest{Query: string(q)})
	r.sent = time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.done, r.err = time.Now(), err
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done, r.status, r.bytes = time.Now(), resp.StatusCode, len(data)
	if err != nil {
		r.err = err
		return r
	}
	if r.status != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(data))
		return r
	}
	var sr serve.SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		r.err = fmt.Errorf("decoding the response: %w", err)
		return r
	}
	r.elapsedMS = sr.ElapsedMS
	r.ans = answer{h: sr.Threshold, total: sr.TotalHits, topK: serveMaxHits}
	for _, h := range sr.Hits {
		r.ans.d.add(h.Name, h.LocalTEnd, h.QEnd, h.Score)
	}
	return r
}

// openLoop offers requests at the spec's fixed rate for dur through
// conns keep-alive connections, one worker goroutine per connection.
// A request's latency counts from the moment it was due.
func openLoop(client *http.Client, url string, rate float64, dur time.Duration, conns int,
	queries [][]byte, reqs []int) (results []httpResult, lags []float64) {
	interval := time.Duration(float64(time.Second) / rate)
	n := max(1, min(len(reqs), int(dur/interval)))
	results = make([]httpResult, n)
	due := make([]time.Time, n)
	jobs := make(chan int, n) // sized to every send: the generator never waits for a worker
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := postSearch(client, url, queries[reqs[i]])
				r.due = due[i]
				results[i] = r
			}
		}()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due[i] = t0.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due[i]))
		lags = append(lags, ms(time.Since(due[i])))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, lags
}

// runServeMix runs the daemon under independent users: POST /search
// over loopback to serve.Server.Handler, open loop at a fixed rate,
// a quarter of the requests repeating earlier queries.
func runServeMix(cfg *config) (*outcome, error) {
	sp := cfg.spec
	text := exp.DNAWorkload(sp.scaled(sp.N), 150, 0, gateSeed).Text // the database; the seed draws the requests
	members := splitMembers(text, sp.Members)
	starts := memberStarts(members)
	rng := rand.New(rand.NewSource(cfg.seed))
	dur := cfg.seconds
	if cfg.trace {
		dur /= 4 // the rest is the traced replay, about 3x dearer per request
	}
	nReq := int(sp.RateQPS*dur.Seconds()) + 1
	queries, reqs := serveQueries(sp, text, nReq, rng)
	opts := alae.SearchOptions{} // the server's base options: E-value 10, DNA scheme, NumCPU lanes

	o := newOutcome()
	s, err := setupStore(cfg.dir, members, seq.DNA, cfg.seed, opts)
	if err != nil {
		return nil, err
	}
	text = nil

	conns := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	srv, err := serve.New(serve.Config{Store: s.st})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	results, lags := openLoop(client, ts.URL+"/search", sp.RateQPS, dur, conns, queries, reqs)
	o.notes["offered_rate_qps"] = sp.RateQPS
	o.notes["connections"] = conns

	led := newLedger(len(queries), func(qi int) *checkTask {
		return &checkTask{label: fmt.Sprintf("serve-mix query %d", qi), query: queries[qi], members: members, starts: starts}
	})
	slots := make([]answerRef, len(results))
	var lat, overhead, respBytes []float64
	rejected := 0
	for i, r := range results {
		o.attempted++
		lat = append(lat, ms(r.done.Sub(r.due)))
		if r.err != nil {
			o.failed++
			if r.status != 0 && r.status != http.StatusOK {
				rejected++
			}
			logf("request %d: %v", i, r.err)
			continue
		}
		slots[i] = led.add(reqs[i], r.ans)
		overhead = append(overhead, ms(r.done.Sub(r.sent))-r.elapsedMS)
		respBytes = append(respBytes, float64(r.bytes))
	}
	reportLatency(o, lat)
	o.layer["serve.overhead_ms"] = median(overhead)
	o.layer["serve.response_bytes"] = median(respBytes)
	o.layer["serve.rejected_frac"] = ratio(float64(rejected), float64(len(results)))
	o.layer["bench.generator_lag_ms"] = median(lags)

	if cfg.trace {
		if err := traceServe(cfg, o, s, opts, members, queries, reqs[:len(results)], led); err != nil {
			return nil, err
		}
	}

	ts.Close()
	if err := s.finish(o); err != nil {
		return nil, err
	}
	led.check(o)
	// Goodput is over the measured window: from the first request's due
	// time to the last response.
	good := 0
	var last time.Time
	for i, r := range results {
		if r.done.After(last) {
			last = r.done
		}
		if r.err == nil && !slots[i].bad() && ms(r.done.Sub(r.due)) <= sp.LatencyLimitMS {
			good++
		}
	}
	o.e2e["goodput_qps"] = float64(good) / last.Sub(results[0].due).Seconds()
	o.notes["latency_limit_ms"] = sp.LatencyLimitMS
	return o, nil
}

// traceServe is the traced part of serve-mix. Two fresh stores load the
// persisted one, each behind its own server: a plain twin and a traced
// one. One client replays the open loop's requests in order,
// interleaving the two request by request, alternating which goes
// first, so both measurements of a request share a moment of the
// machine. The plain twin's POST /search latency is the untraced base.
// On the traced store each request is one operation: Store.Search
// (the store work the daemon would do, filling the query cache), then
// POST /search (now answered from the cache, so its span is the serve
// layer plus one cache probe), then on a cache miss the replay below
// the cache.
func traceServe(cfg *config, o *outcome, s *store, opts alae.SearchOptions, members []member,
	queries [][]byte, reqs []int, led *ledger) error {
	transport := &http.Transport{MaxConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	var urls [2]string
	var stores [2]*alae.Store
	for k := range stores {
		st, err := s.reload()
		if err != nil {
			return err
		}
		srv, err := serve.New(serve.Config{Store: st})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		stores[k], urls[k] = st, ts.URL+"/search"
	}
	st := stores[1]
	r, err := newReplayer(st, opts, members, o)
	if err != nil {
		return err
	}
	defer r.close()

	tr := newTracer()
	var untraced, e2e, storeE2E []float64
	var spent time.Duration
	cacheHits := 0
	untracedCall := func(qi int) {
		hr := postSearch(client, urls[0], queries[qi])
		spent += hr.done.Sub(hr.sent)
		o.attempted++
		if hr.err != nil {
			o.failed++
			logf("untraced request for query %d: %v", qi, hr.err)
			return
		}
		untraced = append(untraced, ms(hr.done.Sub(hr.sent)))
		led.add(qi, hr.ans)
	}
	for i := 0; spent+tr.busy < cfg.seconds*3/4 && i < len(reqs); i++ {
		qi := reqs[i]
		q := queries[qi]
		// As in traceLibrary: the untraced request and the traced
		// Store.Search run back to back, alternating which goes first.
		if i%2 == 0 {
			untracedCall(qi)
		}
		root := tr.beginOp("request")
		var res *alae.StoreResult
		ds := tr.call(root, "store.search", func() { res, err = st.Search(q, opts) })
		if i%2 == 1 {
			untracedCall(qi)
		}
		var hr httpResult
		dh := tr.call(root, "serve.http", func() { hr = postSearch(client, urls[1], q) })
		o.attempted += 2
		if err != nil || hr.err != nil {
			o.failed += 2
			logf("traced request %d: %v / %v", i, err, hr.err)
		} else {
			led.add(qi, storeAnswer(res))
			led.add(qi, hr.ans)
			e2e = append(e2e, ms(ds+dh))
			storeE2E = append(storeE2E, ms(ds))
			if res.Stats.QueryCacheHits > 0 {
				cacheHits++
				tr.cacheHit(root)
			} else {
				o.attempted++
				sres, err := r.below(tr, root, q, res.Threshold, len(res.Hits))
				if err != nil {
					o.failed++
					logf("traced request %d: %v", i, err)
				} else {
					led.add(qi, storeAnswer(sres))
				}
			}
		}
		tr.end(root)
	}
	base := median(untraced)
	ratios := r.finish(tr, o)
	storeLayers(o, tr, storeE2E, st, float64(cacheHits), base)
	o.layer["serve.self_ms"] = median(tr.layerSelfMS()["serve"])
	o.layer["bench.trace_overhead_frac"] = ratio(median(e2e), base) - 1
	return writeTrace(cfg, tr, o, base, ratios)
}
