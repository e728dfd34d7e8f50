package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/serve"
)

// serve-mixed: an open loop of seeded arrivals against an in-process
// server on loopback HTTP. Problems are drawn Zipf-like from more keys than
// the server's factor caches hold, at two dimensions, so cold
// factorizations mix with warm queries on one cache; a fixed share of
// requests is budgeted and a fixed share uses the f32 sweep. Each request
// is timed from when it was due.
//
// Within each key, every combination of sweep precision (f64, f32),
// budget (none, max_error serveMaxError) and lower limit is equally
// common, so half the requests are f32 and half are budgeted. The budgeted
// half and its error target are those of the serving runs recorded in
// BENCH_serve.json (cmd/mvnload -budget-mix 0.5 -max-error 0.01). No
// recorded traffic fixes the key popularity or the f32 share; manifest.json
// gives the reason for each of those values.
const (
	serveSLO      = 90 // ms, from due time; about twice the p90 seen on a 2-CPU host
	serveMaxError = 0.01
	serveZipfS    = 2.0
	// serveCombos is the number of request variants of one key: f64 or
	// f32, budgeted or not, and two lower limits.
	serveCombos = 8
	// Each shard session keeps serveCacheCap factors: serveShards ×
	// serveCacheCap is the server's whole factor capacity.
	serveShards   = 2
	serveCacheCap = 6
	// serveZ is how many of its own reported standard errors a budgeted
	// answer may lie from the reference server's.
	serveZ = 4
)

type serveReq struct {
	key, lower  int
	f32, budget bool
	body        []byte
	due         time.Duration
}

// signature identifies requests whose answers must agree.
func (r serveReq) signature() [4]int {
	return [4]int{r.key, r.lower, b2i(r.f32), b2i(r.budget)}
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

type serveOutcome struct {
	status            int
	resp              serve.Response
	err               error
	send, done, start time.Duration // start is when the generator dispatched it
}

// handlerLog wraps the server's handler and records how long each
// benchmark request spent inside it, keyed by the X-Bench-Op header.
type handlerLog struct {
	inner http.Handler
	base  time.Time
	mu    sync.Mutex
	spans map[int][2]time.Duration
}

func (h *handlerLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Since(h.base)
	h.inner.ServeHTTP(w, r)
	t1 := time.Since(h.base)
	if op, err := strconv.Atoi(r.Header.Get("X-Bench-Op")); err == nil {
		h.mu.Lock()
		h.spans[op] = [2]time.Duration{t0, t1}
		h.mu.Unlock()
	}
}

// snapshot copies the recorded handler spans.
func (h *handlerLog) snapshot() map[int][2]time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int][2]time.Duration, len(h.spans))
	for k, v := range h.spans {
		out[k] = v
	}
	return out
}

// serveStack is one server with its loopback listener and client.
type serveStack struct {
	srv    *serve.Server
	http   *http.Server
	done   chan struct{} // closed when the HTTP server's Serve returns
	url    string
	client *http.Client
	log    *handlerLog
}

func (s *serveStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // idle connections close; active ones finished before close is called
	<-s.done
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// serveConfig runs every query on one worker: the server's parallelism is
// its nproc concurrent requests. With nproc workers per query as well, a
// query waits for its slowest worker, and with a busy loop on one of two
// CPUs the latency grew about twice as much.
func (b *bench) serveConfig() serve.Config {
	return serve.Config{
		Session: parmvn.Config{
			Method: parmvn.TLR, Workers: 1, TileSize: b.sz.tile,
			TLRTol: canonTol, QMCSize: b.sz.serveQMC, Replicates: 3,
			FactorCacheCap: serveCacheCap,
		},
		Shards: serveShards,
	}
}

func (b *bench) startServe(base time.Time) (*serveStack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(b.serveConfig())
	log := &handlerLog{inner: srv.Handler(), base: base, spans: map[int][2]time.Duration{}}
	st := &serveStack{
		srv:  srv,
		http: &http.Server{Handler: log},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: b.workers, MaxIdleConnsPerHost: b.workers,
		}},
		log: log,
	}
	go func() {
		defer close(st.done)
		_ = st.http.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return st, nil
}

// post sends one request and decodes the answer.
func (s *serveStack) post(op int, body []byte) (int, serve.Response, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/mvnprob", bytes.NewReader(body))
	if err != nil {
		return 0, serve.Response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bench-Op", strconv.Itoa(op))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, serve.Response{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, serve.Response{}, err
	}
	var out serve.Response
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			return resp.StatusCode, out, fmt.Errorf("decode response: %w", err)
		}
	}
	return resp.StatusCode, out, nil
}

// stats reads /stats as generic JSON, so counters the server stops
// reporting show up as absent rather than breaking the benchmark.
func (s *serveStack) stats() (map[string]any, error) {
	resp, err := s.client.Get(s.url + "/stats")
	if err != nil {
		return nil, fmt.Errorf("get /stats: %w", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return m, nil
}

func requestBody(grid int, rng, lower float64, f32, budget bool) []byte {
	req := map[string]any{
		"grid":   map[string]int{"nx": grid, "ny": grid},
		"kernel": map[string]any{"family": "matern", "range": rng, "nu": 2.5, "nugget": 0.1},
		"lower":  lower,
	}
	if f32 {
		req["sweep"] = "f32"
	}
	if budget {
		req["max_error"] = serveMaxError
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(err) // a map of plain values always encodes
	}
	return data
}

// zipfCounts splits count requests over keys in proportion to 1/(k+1)^s,
// by largest remainder.
func zipfCounts(count, keys int, s float64) []int {
	w := make([]float64, keys)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		total += w[k]
	}
	out := make([]int, keys)
	type rem struct {
		k int
		r float64
	}
	var rems []rem
	left := count
	for k := range w {
		exact := float64(count) * w[k] / total
		out[k] = int(exact)
		left -= out[k]
		rems = append(rems, rem{k, exact - float64(out[k])})
	}
	sort.Slice(rems, func(i, j int) bool { return rems[i].r > rems[j].r })
	for i := 0; i < left; i++ {
		out[rems[i].k]++
	}
	return out
}

// shuffled expands counts (value v repeated counts[v] times) and shuffles
// it with the workload's seed.
func (b *bench) shuffled(counts []int) []int {
	var out []int
	for v, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, v)
		}
	}
	b.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func runServe(b *bench) error {
	type key struct {
		grid int
		rng  float64
	}
	// The key set and each key's popularity rank are fixed, not seeded: the
	// shard a key lands on follows from its content hash, and a seeded key
	// set would move the hot keys between shards and with them the miss
	// rate. The seed moves the limits, the order and the arrival times.
	keys := make([]key, b.sz.serveKeys)
	for i := range keys {
		keys[i] = key{b.sz.serveGrids[i%2], canonRange * (0.8 + 0.4*float64(i)/float64(len(keys)-1))}
	}
	lowers := [2]float64{b.jitter(-1, 0.02), b.jitter(-0.5, 0.02)}
	// Requests: seeded arrival times (uniform order statistics over the run
	// are the arrivals of a Poisson process with that count). The mix is
	// exact rather than drawn — each key gets its Zipf share, and the j-th
	// request of a key takes combination j (from a seeded offset) of
	// precision × budget × lower limit — and the seed shuffles the order,
	// so runs differ in order and arrival pattern, not in mix.
	count := int(math.Round(b.sz.serveRate * b.opt.seconds))
	dues := make([]float64, count)
	for i := range dues {
		dues[i] = b.rng.Float64() * b.opt.seconds
	}
	sort.Float64s(dues)
	offset := make([]int, len(keys))
	for k := range offset {
		offset[k] = b.rng.Intn(serveCombos)
	}
	keyOf := b.shuffled(zipfCounts(count, len(keys), serveZipfS))
	seen := make([]int, len(keys))
	reqs := make([]serveReq, count)
	for i := range reqs {
		k := keyOf[i]
		c := (offset[k] + seen[k]) % serveCombos
		seen[k]++
		r := serveReq{key: k, f32: c&1 == 1, budget: c&2 == 2, lower: c >> 2,
			due: time.Duration(dues[i] * float64(time.Second))}
		r.body = requestBody(keys[k].grid, keys[k].rng, lowers[r.lower], r.f32, r.budget)
		reqs[i] = r
	}

	base := time.Now()
	var tr *tracer
	if b.tr != nil {
		tr = b.tr
		base = tr.base
	}
	// Set-up warms the hottest keys (as many as one shard holds, so they
	// fit however the shards split them) at both sweep precisions, so the
	// f32 shadows exist too.
	st, err := timeSetups(b, func() (*serveStack, error) {
		s, err := b.startServe(base)
		if err != nil {
			return nil, err
		}
		for k := 0; k < serveCacheCap && k < len(keys); k++ {
			for _, f32 := range []bool{false, true} {
				status, _, err := s.post(-1, requestBody(keys[k].grid, keys[k].rng, lowers[0], f32, false))
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up status %d", status)
				}
				if err != nil {
					s.close()
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		return s, nil
	}, (*serveStack).close)
	if err != nil {
		return err
	}
	defer st.close()

	settle()
	before, err := st.stats()
	if err != nil {
		return err
	}
	outs := make([]serveOutcome, len(reqs))
	// The open loop has no op boundaries: its peak is that of the whole
	// timed section. The resident set climbs through the run as the heap
	// grows back from settle, so a mid-run window would read how far that
	// climb had got.
	b.rss.opStart()
	start := time.Since(base)
	work := make(chan int, len(reqs)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				o := &outs[i]
				o.send = time.Since(base)
				o.status, o.resp, o.err = st.post(i, reqs[i].body)
				o.done = time.Since(base)
			}
		}()
	}
	for i := range reqs {
		due := start + reqs[i].due
		if wait := due - time.Since(base); wait > 0 {
			time.Sleep(wait)
		}
		outs[i].start = time.Since(base)
		work <- i
	}
	close(work)
	wg.Wait()
	b.rss.opEnd()
	b.setPeakRSS()
	after, err := st.stats()
	if err != nil {
		return err
	}

	// Latency from due time; a failed request misses the limit.
	var lat, untraced, late, handler, transport []float64
	ok, within := 0, 0
	last := start
	spans := st.log.snapshot()
	for i, o := range outs {
		due := start + reqs[i].due
		ms := float64(o.done-due) / 1e6
		lat = append(lat, ms)
		if i%2 == 0 {
			untraced = append(untraced, ms)
		}
		late = append(late, float64(o.start-due)/1e6)
		last = max(last, o.done)
		if o.err == nil && o.status == http.StatusOK {
			ok++
		}
		if h, found := spans[i]; found {
			hd := h[1] - h[0]
			handler = append(handler, float64(hd)/1e6)
			transport = append(transport, float64(o.done-o.send-hd)/1e6)
			if tr != nil && i%2 == 1 {
				root := tr.add("op", i, -1, due, o.done)
				tid := tr.add("transport:POST /v1/mvnprob", i, root, o.send, o.done)
				tr.add("serve:Handler", i, tid, h[0], h[1])
			}
		}
	}
	b.rep.set("latency_ms.p50", quantile(lat, 0.5))
	// In an open loop this is the offered rate until the server falls
	// behind it.
	b.rep.set("ops_per_s", float64(ok)/(last-start).Seconds())

	b.rep.attempted = len(reqs)
	wrong := b.checkServe(reqs, outs)
	for i, o := range outs {
		if o.err == nil && o.status == http.StatusOK && !wrong[i] && lat[i] <= serveSLO {
			within++
		}
	}
	b.rep.set("slo_frac", frac(float64(within), float64(len(reqs))))
	b.rep.note("requests %d at %g/s over %gs, %d answered, SLO %d ms; latency ms p50 %.4g p90 %.4g",
		len(reqs), b.sz.serveRate, b.opt.seconds, ok, serveSLO, quantile(lat, 0.5), quantile(lat, 0.9))

	if tr != nil {
		// A 15 s run has 180 requests: p90 is the highest percentile with
		// ten or more samples beyond it.
		b.rep.set("serve.latency_ms.p90", quantile(lat, 0.9))
		b.rep.set("serve.handler_ms.p50", quantile(handler, 0.5))
		b.rep.set("serve.handler_ms.p90", quantile(handler, 0.9))
		b.rep.set("serve.transport_ms.p50", quantile(transport, 0.5))
		b.rep.set("serve.gen_late_ms.max", maxOf(late))
		d := func(k string) (float64, bool) {
			a, ok1 := after[k].(float64)
			c, ok2 := before[k].(float64)
			return a - c, ok1 && ok2
		}
		ratio := func(name, num, den string, plusDen ...string) {
			x, ok1 := d(num)
			y, ok2 := d(den)
			for _, p := range plusDen {
				z, ok3 := d(p)
				y += z
				ok2 = ok2 && ok3
			}
			if !ok1 || !ok2 {
				b.rep.setAbsent(name)
				return
			}
			b.rep.set(name, frac(x, y))
		}
		ratio("serve.coalesced_frac", "coalesced", "requests")
		ratio("serve.batch_size.mean", "batched_queries", "batches")
		ratio("serve.cache_hit_frac", "cache_hits", "cache_hits", "cache_misses")
		ratio("facade.cache_hit_frac", "cache_hits", "cache_hits", "cache_misses")
		for name, k := range map[string]string{"serve.factorizations": "factorizations", "serve.rejected": "rejected", "serve.degraded": "degraded"} {
			if v, found := d(k); found {
				b.rep.set(name, v)
			} else {
				b.rep.setAbsent(name)
			}
		}
		// The facade's key cost at the larger dimension, on a session built
		// like the server's.
		ks := parmvn.NewSession(b.serveConfig().Session)
		defer ks.Close()
		big := keys[1%len(keys)]
		if err := b.setKeyCost(ks, parmvn.Grid(big.grid, big.grid), canonKernel(big.rng)); err != nil {
			return err
		}
		b.rep.setTrace(tr.summarize(), untraced)
	}
	return nil
}

// checkServe compares every answer with a second server of the same
// configuration queried one request at a time: unbudgeted answers must be
// bit-identical, budgeted (or degraded) ones within their own error bar.
// It returns which requests were answered wrongly.
func (b *bench) checkServe(reqs []serveReq, outs []serveOutcome) []bool {
	ref := serve.New(b.serveConfig())
	defer ref.Close()
	h := ref.Handler()
	refs := map[[4]int]serve.Response{}
	wrong := make([]bool, len(reqs))
	refused, checked := 0, 0
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			b.rep.failed++
			if o.status == http.StatusServiceUnavailable {
				refused++
			} else if b.rep.failed <= 5 {
				b.rep.note("request %d: status %d, error %v", i, o.status, o.err)
			}
			continue
		}
		sig := reqs[i].signature()
		want, found := refs[sig]
		if !found {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mvnprob", bytes.NewReader(reqs[i].body)))
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &want) != nil {
				b.rep.check(false, "reference server answered %d: %s", rec.Code, rec.Body.String())
				wrong[i] = true
				continue
			}
			refs[sig] = want
		}
		checked++
		got := o.resp
		ok := got.Prob == want.Prob && got.StdErr == want.StdErr
		if reqs[i].budget || got.Degraded {
			ok = withinBar(got.Prob, want.Prob, got.StdErr, serveZ, 1e-3)
		}
		wrong[i] = !ok
		b.rep.check(ok, "serve-mixed request %d: %g ± %g vs reference %g ± %g", i, got.Prob, got.StdErr, want.Prob, want.StdErr)
	}
	b.rep.note("checked %d answers against %d reference answers; %d refused (503)", checked, len(refs), refused)
	return wrong
}
