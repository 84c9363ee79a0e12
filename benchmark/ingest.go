package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gcore"
)

// The ingest writer. gcored has no element-level write endpoint, so
// writes call DurableEngine.MutateGraph directly, open loop at a fixed
// rate, while one HTTP reader runs prepared lookups and read-your-write
// probes through the server.
const (
	// writeRate is the open-loop write rate, about half of the
	// writer's closed-loop capacity (SyncAlways, SNB persons=2000) on
	// a 2-core host.
	writeRate = 400
	// insertEvery makes every tenth write an insert (a Comment plus
	// its has_creator edge); the rest update a person's "ver"
	// property. Growth per run is rate·seconds/10 nodes and edges.
	insertEvery = 10
	// checkpointEvery is the automatic-checkpoint budget in WAL
	// records (an update logs one record, an insert two), sized for
	// at least three checkpoints in a 25 s run.
	checkpointEvery = 2000
)

const probeText = `SELECT n.ver AS ver MATCH (n:Person) WHERE n.pid = $pid`

func durOpts() []gcore.DurOption {
	return []gcore.DurOption{gcore.WithSyncPolicy(gcore.SyncAlways), gcore.WithCheckpointEvery(checkpointEvery)}
}

// planIngestReads: the reader's mix, three lookups per probe.
func planIngestReads(seed int64, socials []*gcore.Graph, _ *gcore.Graph) *mix {
	rng := rand.New(rand.NewSource(seed))
	persons := socials[0].NumNodesWithLabel("Person")
	return &mix{graph: socials[0].Name(), classes: []*class{
		preparedClass("lookup", pointText, 3, pidParams(rng, persons, 512)),
		{name: "probe", prepared: true, text: probeText, slots: 1},
	}}
}

type ackedUpdate struct {
	pid int64
	ver int64
}

type insertRec struct {
	node    gcore.NodeID
	edge    gcore.EdgeID
	creator gcore.NodeID
	seq     int64
}

// ingester owns the durable engine and the record of acknowledged
// writes. Only the writer goroutine touches seq, vers and inserts;
// last is shared with the probe.
type ingester struct {
	d     *gcore.DurableEngine
	dir   string
	graph string
	pids  []gcore.NodeID
	rng   *rand.Rand

	seq     int64
	vers    map[gcore.NodeID]int64
	pidOf   map[gcore.NodeID]int64
	inserts []insertRec

	mu   sync.Mutex
	last ackedUpdate
}

func openIngester(seed int64, persons int) (*ingester, error) {
	dir, err := os.MkdirTemp("", "gcbench-ingest-")
	if err != nil {
		return nil, err
	}
	d, err := gcore.OpenDurable(dir, durOpts()...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w := &ingester{d: d, dir: dir, rng: rand.New(rand.NewSource(seed ^ 0x5eed)), vers: map[gcore.NodeID]int64{}, pidOf: map[gcore.NodeID]int64{}}
	social, companies, pids, err := generate(d.Engine, persons, seed)
	if err == nil {
		err = d.RegisterGraph(social)
	}
	if err == nil {
		err = d.RegisterGraph(companies)
	}
	if err == nil {
		err = d.Checkpoint()
	}
	if err != nil {
		w.close()
		return nil, err
	}
	w.graph, w.pids = social.Name(), pids
	for i, id := range pids {
		w.pidOf[id] = int64(i)
	}
	return w, nil
}

func (w *ingester) close() {
	_ = w.d.Close() // the run is over; nothing acknowledged depends on it
	os.RemoveAll(w.dir)
}

// run issues writes on schedule until the deadline, timing each from
// when it was due. Writes still due when the deadline passes are not
// issued; how late the schedule ran shows in the lag samples.
func (w *ingester) run(until time.Time, t *tally, rec *recorder) {
	interval := time.Second / writeRate
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if due.After(until) || time.Now().After(until) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		issued := time.Now()
		kind, err := w.write(rec)
		t.record(kind, true, time.Since(due), err)
		t.recordLag(issued.Sub(due))
	}
}

// write performs one update or insert. Identifiers are allocated
// before MutateGraph: NextNodeID and NextEdgeID take the engine's
// writer lock, which MutateGraph already holds while its callback
// runs, so calling them inside the callback deadlocks.
func (w *ingester) write(rec *recorder) (string, error) {
	w.seq++
	seq := w.seq
	creator := w.pids[w.rng.Intn(len(w.pids))]
	if seq%insertEvery == 0 {
		nid, eid := w.d.NextNodeID(), w.d.NextEdgeID()
		start := time.Now()
		err := w.d.MutateGraph(w.graph, func(g *gcore.Graph) error {
			if err := g.AddNode(&gcore.Node{ID: nid, Labels: gcore.NewLabels("Comment"),
				Props: gcore.NewProperties(map[string]gcore.Value{"seq": gcore.Int(seq)})}); err != nil {
				return err
			}
			return g.AddEdge(&gcore.Edge{ID: eid, Src: nid, Dst: creator, Labels: gcore.NewLabels("has_creator")})
		})
		rec.client("mutate", "insert", start, 0)
		if err == nil {
			w.inserts = append(w.inserts, insertRec{node: nid, edge: eid, creator: creator, seq: seq})
		}
		return "insert", err
	}
	start := time.Now()
	err := w.d.MutateGraph(w.graph, func(g *gcore.Graph) error {
		n, ok := g.Node(creator)
		if !ok {
			return fmt.Errorf("person #%d missing", creator)
		}
		p := n.Props.Clone()
		p.Set("ver", gcore.Int(seq))
		return g.SetNodeProps(creator, p)
	})
	rec.client("mutate", "update", start, 0)
	if err == nil {
		w.vers[creator] = seq
		w.mu.Lock()
		w.last = ackedUpdate{pid: w.pidOf[creator], ver: seq}
		w.mu.Unlock()
	}
	return "update", err
}

// probe reads back the latest acknowledged update through the server;
// the person's version must be at least the acknowledged one (a later
// update may have raised it).
func (w *ingester) probe(cs *clientState) error {
	w.mu.Lock()
	last := w.last
	w.mu.Unlock()
	start := time.Now()
	body, err := cs.c.exec(cs.sessions[w.graph], cs.handles[w.graph+"/probe"], map[string]gcore.Value{"pid": gcore.Int(last.pid)})
	cs.rec.client("http", "probe", start, int64(len(body)))
	if err != nil {
		return err
	}
	var resp struct {
		Results []struct {
			Table struct {
				Rows [][]json.RawMessage `json:"rows"`
			} `json:"table"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("wrong output: %w", err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Table.Rows) != 1 || len(resp.Results[0].Table.Rows[0]) != 1 {
		return fmt.Errorf("wrong output: probe of pid %d: want one row", last.pid)
	}
	cell := resp.Results[0].Table.Rows[0][0]
	got, err := canonValue(cell)
	if err != nil {
		return fmt.Errorf("wrong output: %w", err)
	}
	if last.ver > 0 {
		v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(got, "set["), "]"), 10, 64)
		if err != nil || v < last.ver {
			return fmt.Errorf("wrong output: read-your-write: pid %d acknowledged ver %d, read %s", last.pid, last.ver, cell)
		}
	}
	return nil
}

// reopen closes the engine, recovers it from disk and checks that
// every acknowledged write survived; it returns the recovery time and
// the number of acknowledged writes that are missing.
func (w *ingester) reopen() (time.Duration, int, error) {
	if err := w.d.Close(); err != nil {
		return 0, 0, fmt.Errorf("closing durable engine: %w", err)
	}
	start := time.Now()
	d, err := gcore.OpenDurable(w.dir, durOpts()...)
	if err != nil {
		return 0, 0, fmt.Errorf("reopening durable engine: %w", err)
	}
	recoverTime := time.Since(start)
	w.d = d
	g, ok := d.Graph(w.graph)
	if !ok {
		return recoverTime, len(w.vers) + len(w.inserts), fmt.Errorf("graph %s missing after recovery", w.graph)
	}
	missing := 0
	for id, ver := range w.vers {
		n, ok := g.Node(id)
		if got, has := intProp(n, ok, "ver"); !has || got != ver {
			missing++
		}
	}
	for _, in := range w.inserts {
		n, ok := g.Node(in.node)
		e, eok := g.Edge(in.edge)
		if got, has := intProp(n, ok, "seq"); !has || got != in.seq || !eok ||
			e.Src != in.node || e.Dst != in.creator || !e.Labels.Has("has_creator") {
			missing++
		}
	}
	return recoverTime, missing, nil
}

// intProp reads a single-valued integer property of a node that may
// be missing.
func intProp(n *gcore.Node, ok bool, key string) (int64, bool) {
	if !ok {
		return 0, false
	}
	v, ok := n.Props.Get(key).Singleton()
	if !ok {
		return 0, false
	}
	return v.AsInt()
}
