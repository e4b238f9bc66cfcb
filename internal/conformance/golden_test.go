package conformance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// updateGolden rewrites testdata/engine_golden.json from the current engines
// instead of comparing against it. The committed golden was produced before
// the engines' delivery loops were merged into one kernel; regenerate it only
// for a deliberate, reviewed change of schedule or metering.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/engine_golden.json")

const goldenPath = "testdata/engine_golden.json"

// goldenCell is one pinned run: the timeline JSON plus every exact counter
// the deterministic engines report.
type goldenCell struct {
	Counters goldenCounters  `json:"counters"`
	Timeline json.RawMessage `json:"timeline"`
}

// goldenCounters are a run's exact counters. Slices and maps are pinned by
// hash so the file stays readable.
type goldenCounters struct {
	Verdict      string `json:"verdict"`
	Steps        int    `json:"steps"`
	ForcedSteps  int    `json:"forced_steps"`
	Rounds       int    `json:"rounds"`
	Messages     int    `json:"messages"`
	TotalBits    int64  `json:"total_bits"`
	MaxMsgBits   int    `json:"max_msg_bits"`
	PerEdgeHash  string `json:"per_edge_hash"`
	PeakInFlight int    `json:"peak_in_flight"`
	Dropped      int    `json:"dropped"`
	Steals       int    `json:"steals"`
	StolenEdges  int    `json:"stolen_edges"`
	SigmaG       int    `json:"sigma_g"`
	AlphabetHash string `json:"alphabet_hash"`
	FirstSymbols int    `json:"first_symbols"`
	FirstSymHash string `json:"first_symbol_hash"`
	VisitedHash  string `json:"visited_hash"`
}

// goldenEngines are the deterministic engines the golden pins: their
// timelines and counters are pure functions of (graph, protocol, scheduler,
// seed, fault plan).
func goldenEngines() []struct {
	name string
	eng  sim.Engine
} {
	return []struct {
		name string
		eng  sim.Engine
	}{
		{"seq", sim.Sequential()},
		{"sync", sim.Synchronous()},
		{"shard1", shard.Engine(1)},
		{"shard3", shard.Engine(3)},
	}
}

// goldenPlans are the fault settings every cell runs under: fault-free, and
// the two plans of TestTimelineFaultDeterminism applied to each family's
// graph — vertex 3 down from its first delivery, and the first send on
// vertex 3's first out-edge dropped.
var goldenPlans = []struct {
	name   string
	faults func(g *graph.G) *sim.Faults
}{
	{"fault-free", func(*graph.G) *sim.Faults { return nil }},
	{"crash-3", func(*graph.G) *sim.Faults { return &sim.Faults{CrashAfter: map[graph.VertexID]int{3: 0}} }},
	{"drop-3", func(g *graph.G) *sim.Faults {
		return &sim.Faults{DropFirst: map[graph.EdgeID]int{g.OutEdge(3, 0).ID: 1}}
	}},
}

func hashJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

func goldenRun(t *testing.T, eng sim.Engine, g *graph.G, p protocol.Protocol, schedName string, stride int, faults *sim.Faults) goldenCell {
	t.Helper()
	sched, err := sim.NewScheduler(schedName)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(stride)
	r, err := eng.Run(g, p, sim.Options{
		Scheduler: sched, Seed: 7, Obs: rec, Faults: faults,
		TrackAlphabet: true, TrackFirstSymbol: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := rec.Timeline().JSON()
	if err != nil {
		t.Fatal(err)
	}
	m := &r.Metrics
	firstKeys := make([]int, 0, len(m.FirstSymbol))
	for e := range m.FirstSymbol {
		firstKeys = append(firstKeys, int(e))
	}
	sort.Ints(firstKeys)
	first := make([]string, 0, len(firstKeys))
	for _, e := range firstKeys {
		first = append(first, fmt.Sprintf("%d=%x", e, m.FirstSymbol[graph.EdgeID(e)]))
	}
	return goldenCell{Counters: goldenCounters{
		Verdict:      r.Verdict.String(),
		Steps:        r.Steps,
		ForcedSteps:  r.ForcedSteps,
		Rounds:       r.Rounds,
		Messages:     m.Messages,
		TotalBits:    m.TotalBits,
		MaxMsgBits:   m.MaxMsgBits,
		PerEdgeHash:  hashJSON(t, []any{m.PerEdgeBits, m.PerEdgeMsgs}),
		PeakInFlight: m.PeakInFlight,
		Dropped:      r.Dropped,
		Steals:       r.Steals,
		StolenEdges:  r.StolenEdges,
		SigmaG:       m.AlphabetSize(),
		AlphabetHash: hashJSON(t, m.Alphabet), // encoding/json sorts map keys
		FirstSymbols: len(m.FirstSymbol),
		FirstSymHash: hashJSON(t, first),
		VisitedHash:  hashJSON(t, r.Visited),
	}, Timeline: tl}
}

// TestEngineGolden pins every deterministic engine's timeline and exact
// counters, over obsFamilies × every scheduler × goldenPlans, plus a skewed
// scale-free graph on which the sharded engine's ghost routing and work
// stealing engage, against a golden file generated before the engines shared
// a delivery kernel. The in-binary comparisons (seq vs shard(1)) cannot
// catch a change that moves every engine in lockstep; this file can.
func TestEngineGolden(t *testing.T) {
	got := map[string]goldenCell{}
	for _, f := range obsFamilies {
		for _, schedName := range sim.SchedulerNames() {
			for _, plan := range goldenPlans {
				for _, e := range goldenEngines() {
					key := f.name + "/" + schedName + "/" + plan.name + "/" + e.name
					got[key] = goldenRun(t, e.eng, f.graph, f.proto(), schedName, 4, plan.faults(f.graph))
				}
			}
		}
	}
	sf, err := scenario.Build("scalefree", map[string]int{"n": 200, "m": 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, schedName := range sim.SchedulerNames() {
		for _, k := range []int{1, 2, 4} {
			key := fmt.Sprintf("scalefree/%s/fault-free/shard%d", schedName, k)
			got[key] = goldenRun(t, shard.Engine(k), sf, core.NewGeneralBroadcast([]byte("m")), schedName, 256, nil)
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *updateGolden {
		// One compact cell per line: small, and a diff names the cell.
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, k := range keys {
			cell, err := json.Marshal(got[k])
			if err != nil {
				t.Fatal(err)
			}
			sep := ","
			if i == len(keys)-1 {
				sep = ""
			}
			fmt.Fprintf(&buf, "%q: %s%s\n", k, cell, sep)
		}
		buf.WriteString("}\n")
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/conformance -run TestEngineGolden -update-golden)", err)
	}
	var want map[string]goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cells, run produced %d", len(want), len(got))
	}
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from golden", k)
			continue
		}
		g := got[k]
		if g.Counters != w.Counters {
			t.Errorf("%s: counters differ\n got %+v\nwant %+v", k, g.Counters, w.Counters)
		}
		if !jsonEqual(t, g.Timeline, w.Timeline) {
			t.Errorf("%s: timeline differs\n--- got ---\n%s\n--- want ---\n%s", k, g.Timeline, w.Timeline)
		}
	}
}

// jsonEqual compares two JSON documents byte for byte after compacting both,
// so the golden's indentation inside the larger file does not matter.
func jsonEqual(t *testing.T, a, b []byte) bool {
	t.Helper()
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&cb, b); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}
