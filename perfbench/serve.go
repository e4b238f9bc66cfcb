package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	anonnet "repro"
	"repro/internal/serve"
)

// serve_mixed: an in-process run server behind a loopback HTTP server, two
// closed-loop keep-alive clients with disjoint keys, each its own tenant.
// Almost every request is a cache hit, whose time is the serving path
// (KeyOf rebuilds the network, cache lookup, JSON, HTTP); a fixed share are
// first-touch keys of one shape, which add singleflight, admission, an
// execution and a cache put.
const (
	serveClients = 2
	serveWorkers = 2
	// serveMaxVertices is the server's default admission limit, which
	// serve.KeyOf enforces.
	serveMaxVertices = 4096
	// hotPerShape is the number of warm keys per client and shape.
	hotPerShape = 4
	// serveOpsPerSec sizes a run: at 10 s, 40000 requests with 100 cold
	// keys, about 8 s on a calm 2-vCPU host. op_tail_ms is p99.9 with 40
	// requests beyond it, which puts it at the 60th percentile of the
	// misses.
	serveOpsPerSec = 4000
	// traceServeBlocks is the number of blocks per client the traced run
	// times; client 0 sends one cold key per block.
	traceServeBlocks = 24
)

// shape is one request shape: an op on a scenario family. Each hot key
// takes the shape's one network, built from the workload seed, with its
// own scheduler seed.
type shape struct {
	name   string
	weight int // hot requests of this shape per block
	req    func(graphSeed, seed int64) anonnet.Request
}

// blockLen is the length of one block of a client's sequence, the sum of
// the shapes' weights; a pass is one block per client.
var blockLen = func() int {
	n := 0
	for _, sh := range shapes {
		n += sh.weight
	}
	return n
}()

// shapes are the request shapes. The weights put op_p50 in the middle of
// the topo hits, above the labels hits and below the bcast hits. The cold
// keys all take the last shape: the sharded topology run takes 15-30 ms,
// which puts the misses far above the slowest hit mode and above all but
// the rarest hit stalls.
var shapes = []shape{
	{"labels", 60, func(g, seed int64) anonnet.Request {
		return anonnet.Request{Op: "labels", Scenario: fmt.Sprintf("torus:w=4,h=4,seed=%d", g),
			Scheduler: "random", Seed: seed}
	}},
	{"bcast", 50, func(g, seed int64) anonnet.Request {
		return anonnet.Request{Op: "broadcast", Scenario: fmt.Sprintf("scalefree:n=256,seed=%d", g),
			Message: "m", Scheduler: "random", Seed: seed}
	}},
	{"topo", 90, func(g, seed int64) anonnet.Request {
		return anonnet.Request{Op: "topology", Scenario: fmt.Sprintf("smallworld:n=16,seed=%d", g),
			Engine: "shard", Shards: 2, Scheduler: "random", Seed: seed}
	}},
}

type serveMixed struct {
	seed    int64
	srv     *serve.Server
	ts      *httptest.Server
	clients []*http.Client
	// hot[c] are client c's warm keys; want holds every key's result bytes
	// from its miss, which each hit must reproduce byte for byte.
	hot     [][]key
	want    map[string][]byte
	buildMS []float64
	// the last measured phase
	stats0, stats1 serve.Stats
	cold           int
	respBytes      int64
}

// key is one request key: its shape, request and JSON body.
type key struct {
	shape string
	req   anonnet.Request
	body  []byte
}

func newServeMixed(seed int64) workload { return &serveMixed{seed: seed} }

func (w *serveMixed) passLen() int              { return serveClients * blockLen }
func (w *serveMixed) nominalOpsPerSec() float64 { return serveOpsPerSec }

// graphSeed is the generator seed of a shape's hot-key network.
func (w *serveMixed) graphSeed(sh shape) int64 { return derive(w.seed, "graph-"+sh.name, 0) }

func (w *serveMixed) close() {
	if w.ts != nil {
		w.ts.Close()
		w.srv.Close()
		w.ts, w.srv = nil, nil
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
}

func (w *serveMixed) setup() error {
	w.close()
	t0 := time.Now()
	for _, sh := range shapes {
		if _, err := anonnet.ScenarioNetwork(sh.req(w.graphSeed(sh), 0).Scenario); err != nil {
			return err
		}
	}
	w.buildMS = append(w.buildMS, ms(time.Since(t0)))

	w.srv = serve.NewServer(serve.Config{Workers: serveWorkers})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.clients = make([]*http.Client, serveClients)
	w.hot = make([][]key, serveClients)
	w.want = map[string][]byte{}
	for c := range w.clients {
		w.clients[c] = &http.Client{Timeout: 60 * time.Second}
		for _, sh := range shapes {
			for k := 0; k < hotPerShape; k++ {
				req := sh.req(w.graphSeed(sh), derive(w.seed, fmt.Sprintf("hot-%s-%d", sh.name, c), k))
				body, err := json.Marshal(req)
				if err != nil {
					return err
				}
				w.hot[c] = append(w.hot[c], key{sh.name, req, body})
				r, err := w.post(c, body)
				if err != nil {
					return fmt.Errorf("warming %s: %w", body, err)
				}
				if r.status != "miss" {
					return fmt.Errorf("warming %s: cache status %q, want miss", body, r.status)
				}
				w.want[string(body)] = r.result
			}
		}
	}
	return nil
}

// reply is one decoded response.
type reply struct {
	status string
	result []byte
	size   int
}

func (w *serveMixed) post(c int, body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, w.ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Anon-Tenant", fmt.Sprintf("client-%d", c))
	resp, err := w.clients[c].Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Cache struct {
			Status string `json:"status"`
		} `json:"cache"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return reply{}, fmt.Errorf("bad response body: %w", err)
	}
	return reply{out.Cache.Status, out.Result, len(data)}, nil
}

// planned is one request of a client's sequence. Hot requests point at
// the client's warm keys, so a plan of tens of thousands of requests stays
// small next to the server it measures.
type planned struct {
	*key
	cold bool
}

// plan is client c's sequence of blocks. A block holds each shape's weight
// of hot keys in a seeded order; in client 0's blocks one topo request is
// instead a cold key, on a network and with a scheduler seed that no
// earlier request in this process used (tag separates the phases). Only
// client 0 sends cold keys, so two executions never compete for the cores
// and the misses form one latency mode.
func (w *serveMixed) plan(c, blocks int, tag string) ([]planned, error) {
	rng := rand.New(rand.NewSource(derive(w.seed, "plan-"+tag, c)))
	seq := make([]planned, 0, blocks*blockLen)
	for b := 0; b < blocks; b++ {
		block := seq[len(seq) : len(seq)+blockLen]
		i := 0
		for si, sh := range shapes {
			for k := 0; k < sh.weight; k++ {
				block[i] = planned{key: &w.hot[c][si*hotPerShape+rng.Intn(hotPerShape)]}
				i++
			}
		}
		if c == 0 {
			cold := shapes[len(shapes)-1]
			req := cold.req(derive(w.seed, "cold-graph-"+tag, b), derive(w.seed, "cold-"+tag, b))
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			block[len(block)-1] = planned{key: &key{cold.name, req, body}, cold: true}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		seq = seq[:len(seq)+blockLen]
	}
	return seq, nil
}

func (w *serveMixed) measure(n int) (*phase, error) {
	return w.drive(n/w.passLen(), "timed", nil)
}

// drive runs blocks blocks per client, both clients concurrently, and
// returns the samples in client-major order. Each reply is checked as it
// arrives, after its latency is taken. With a tracer, each request also
// times serve.KeyOf on its body and, for a cold key, anonnet.Do.
func (w *serveMixed) drive(blocks int, tag string, tr *tracer) (*phase, error) {
	seqs := make([][]planned, serveClients)
	for c := range seqs {
		var err error
		if seqs[c], err = w.plan(c, blocks, tag); err != nil {
			return nil, err
		}
	}
	w.stats0 = w.srv.Stats()
	phases := make([]phase, serveClients)
	cold := make([]int, serveClients)
	size := make([]int64, serveClients)
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ph := &phases[c]
			ph.samples = make([]sample, 0, len(seqs[c]))
			for i, p := range seqs[c] {
				op := c*len(seqs[c]) + i
				var direct *anonnet.Report
				var directErr error
				if tr != nil {
					direct, directErr = w.traceCalls(tr, op, p)
				}
				kind := "hit"
				if p.cold {
					kind = "miss"
					cold[c]++
				}
				var r reply
				var err error
				id := -1
				if tr != nil {
					id = tr.open("serve."+kind, op, -1)
				}
				t0 := time.Now()
				r, err = w.post(c, p.body)
				d := time.Since(t0)
				if tr != nil {
					tr.setDur(id, t0, d)
				}
				size[c] += int64(r.size)
				steps, fail := w.verify(p, r, err, direct)
				if directErr != nil {
					fail = fmt.Sprintf("direct run: %v", directErr)
				}
				ph.deliveries += steps
				ph.samples = append(ph.samples, sample{ms: ms(d), group: p.shape + ":" + kind, fail: fail})
			}
		}(c)
	}
	wg.Wait()
	w.stats1 = w.srv.Stats()
	ph := &phase{samples: make([]sample, 0, len(phases[0].samples)+len(phases[1].samples)), clients: serveClients}
	w.cold, w.respBytes = 0, 0
	for c := range phases {
		ph.samples = append(ph.samples, phases[c].samples...)
		ph.deliveries += phases[c].deliveries
		w.cold += cold[c]
		w.respBytes += size[c]
	}
	return ph, nil
}

// traceCalls times serve.KeyOf on a request and, for a cold key, runs it
// through anonnet.Do, returning that run's report.
func (w *serveMixed) traceCalls(tr *tracer, op int, p planned) (*anonnet.Report, error) {
	req := p.req
	var keyErr *serve.Error
	tr.run(tr.open("serve.key", op, -1), func() {
		_, _, keyErr = serve.KeyOf(&req, serve.Limits{MaxVertices: serveMaxVertices})
	})
	if keyErr != nil {
		return nil, keyErr
	}
	if !p.cold {
		return nil, nil
	}
	var res *anonnet.RunResult
	var err error
	tr.run(tr.open("anonnet.do", op, -1), func() { res, err = anonnet.Do(req) })
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// verify checks one reply: a cold key must miss, a warm key must hit with
// exactly the bytes of its miss, and a cold key's counters must equal
// those of its direct run, when the traced run made one. It returns a cold
// key's delivery count.
func (w *serveMixed) verify(p planned, r reply, err error, direct *anonnet.Report) (steps int64, fail string) {
	switch {
	case err != nil:
		return 0, err.Error()
	case !p.cold && r.status != "hit":
		return 0, fmt.Sprintf("warm key answered %q", r.status)
	case !p.cold && !bytes.Equal(r.result, w.want[string(p.body)]):
		return 0, "hit bytes differ from the key's miss"
	case !p.cold:
		return 0, ""
	case r.status != "miss":
		return 0, fmt.Sprintf("cold key answered %q", r.status)
	}
	var res struct {
		Report struct {
			Steps      int64 `json:"steps"`
			TotalBits  int64 `json:"total_bits"`
			Terminated bool  `json:"terminated"`
		} `json:"report"`
	}
	if err := json.Unmarshal(r.result, &res); err != nil {
		return 0, fmt.Sprintf("bad result: %v", err)
	}
	rep := res.Report
	switch {
	case !rep.Terminated:
		return rep.Steps, "cold run did not terminate"
	case direct != nil && (int64(direct.Steps) != rep.Steps || direct.TotalBits != rep.TotalBits):
		return rep.Steps, fmt.Sprintf("served run: %d steps, %d bits; direct run: %d, %d",
			rep.Steps, rep.TotalBits, direct.Steps, direct.TotalBits)
	}
	return rep.Steps, ""
}

// check adds the server's counter invariants; drive checked every reply.
func (w *serveMixed) check(ph *phase) { ph.invariant = w.invariant() }

// invariant checks the server's counters over the last phase: one
// execution per cold key, and no joins, refusals, failures or evictions.
func (w *serveMixed) invariant() string {
	a, b := w.stats0, w.stats1
	switch {
	case b.Executions-a.Executions != int64(w.cold):
		return fmt.Sprintf("%d executions for %d cold keys", b.Executions-a.Executions, w.cold)
	case b.Joins != a.Joins, b.Saturated != a.Saturated, b.Failures != a.Failures, b.CacheEvictions != a.CacheEvictions:
		return fmt.Sprintf("joins %d, saturated %d, failures %d, evictions %d; want 0",
			b.Joins-a.Joins, b.Saturated-a.Saturated, b.Failures-a.Failures, b.CacheEvictions-a.CacheEvictions)
	}
	return ""
}

// layers reads the server's counters and latency split from the untraced
// phase, then runs a traced phase that times serve.KeyOf and anonnet.Do.
func (w *serveMixed) layers(untraced *phase, log io.Writer) (map[string]float64, error) {
	a, b := w.stats0, w.stats1
	out := map[string]float64{
		"serve.hits":       float64(b.Hits - a.Hits),
		"serve.misses":     float64(b.Misses - a.Misses),
		"serve.joins":      float64(b.Joins - a.Joins),
		"serve.executions": float64(b.Executions - a.Executions),
		"serve.saturated":  float64(b.Saturated - a.Saturated),
		"serve.evictions":  float64(b.CacheEvictions - a.CacheEvictions),
		"serve.resp_bytes": float64(w.respBytes) / float64(len(untraced.samples)),
		"graph.build_ms":   median(w.buildMS),
	}
	for k, v := range runtimeLayer(untraced.mem, len(untraced.samples)) {
		out[k] = v
	}
	var hits, misses []float64
	for _, s := range untraced.samples {
		if strings.HasSuffix(s.group, ":miss") {
			misses = append(misses, s.ms)
		} else {
			hits = append(hits, s.ms)
		}
	}
	out["serve.hit_p50_ms"] = median(hits)
	out["serve.miss_p50_ms"] = median(misses)

	tr := newTracer()
	ph, err := w.drive(traceServeBlocks, "traced", tr)
	if err != nil {
		return nil, err
	}
	w.check(ph)
	if n := ph.failed(); n > 0 || ph.invariant != "" {
		return nil, fmt.Errorf("traced phase: %d failed requests %s", n, ph.invariant)
	}
	// A cold request's overhead is its miss latency minus its own
	// execution, timed through anonnet.Do just before it was sent.
	exec, miss := tr.perOp("anonnet.do"), tr.perOp("serve.miss")
	var over []float64
	for op, d := range miss {
		over = append(over, ms(d-exec[op]))
	}
	out["serve.key_ms"] = median(tr.durations("serve.key")) / 1e6
	out["serve.exec_ms"] = medianMS(exec)
	out["serve.miss_overhead_ms"] = median(over)
	out["trace.overhead_frac"] = median(latencies(ph.samples))/median(latencies(untraced.samples)) - 1
	tr.summary(log)
	return out, nil
}
