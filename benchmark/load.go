package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gcore"
)

// instance is one concrete read: a statement, its parameters, the
// graph it runs against as its session's default graph (empty: the
// workload's main graph) and the reference digest its response must
// match.
type instance struct {
	text   string
	params map[string]gcore.Value
	graph  string
	want   string
}

// class is one query class of a read mix. A prepared class runs its
// statement text (an instance's own text where instances differ by
// graph) through POST /prepare once per session and POST /exec per
// request; an ad hoc class sends each instance's own text through
// POST /query. A class with a custom op (the ingest probe) checks its
// own output.
type class struct {
	name     string
	prepared bool
	text     string
	pool     []instance
	slots    int // share of the deck
	custom   func(cs *clientState) error
}

// mix is a workload's read classes and its main graph. Every client
// cycles through a deck holding each class slots times, shuffled once
// per client, so class shares are exact and the percentiles of the
// latency mix sit at the same place in every run. A class with exactly
// as many instances as slots runs each instance once per pass; any
// other class draws an instance at random for each slot.
type mix struct {
	graph   string
	classes []*class
}

// slot is one deck entry: a class and its fixed instance, or -1.
type slot struct {
	cl   *class
	inst int
}

// deck builds a client's deck. Slots with a fixed instance i form
// block i (analytic: every statement on graph i); each block is
// shuffled and the blocks follow in order, so a pass visits the
// graphs one after another.
func (m *mix) deck(rng *rand.Rand) []slot {
	blocks := map[int][]slot{}
	for _, c := range m.classes {
		for i := 0; i < c.slots; i++ {
			inst := -1
			if len(c.pool) == c.slots {
				inst = i
			}
			blocks[inst] = append(blocks[inst], slot{c, inst})
		}
	}
	var d []slot
	for i := -1; i < len(blocks); i++ {
		b := blocks[i]
		rng.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
		d = append(d, b...)
	}
	return d
}

// graphOf is the graph an instance runs against.
func (m *mix) graphOf(in *instance) string {
	if in.graph != "" {
		return in.graph
	}
	return m.graph
}

// reference computes every instance's expected digest through the
// direct Session API of eng (built with parallelism 1), two sessions
// at a time.
func (m *mix) reference(eng *gcore.Engine) error {
	var jobs []*instance
	var names []string
	for _, c := range m.classes {
		for i := range c.pool {
			jobs = append(jobs, &c.pool[i])
			names = append(names, c.name)
		}
	}
	const workers = 2
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := eng.NewSession()
			for i := w; i < len(jobs); i += workers {
				err := sess.SetDefaultGraph(m.graphOf(jobs[i]))
				var res *gcore.Result
				if err == nil {
					res, err = sess.EvalParamsContext(bg, jobs[i].text, jobs[i].params)
				}
				if err == nil {
					jobs[i].want, err = engineDigest(res)
				}
				if err != nil {
					errs[w] = fmt.Errorf("reference %s: %w", names[i], err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// texts lists the distinct statement texts of the mix.
func (m *mix) texts() []string {
	seen := map[string]bool{}
	var out []string
	add := func(text string) {
		if text != "" && !seen[text] {
			seen[text] = true
			out = append(out, text)
		}
	}
	for _, c := range m.classes {
		add(c.text)
		for _, in := range c.pool {
			add(in.text)
		}
	}
	return out
}

// clientState is one closed-loop client: its connection, one server
// session per graph its instances run against, prepared handles, deck
// position and the responses it has verified.
type clientState struct {
	c        *client
	sessions map[string]string // graph -> session
	handles  map[string]string // graph + "/" + class -> handle
	rng      *rand.Rand
	deck     []slot
	pos      int
	// seen maps a response body's hash to its digest, so a body
	// identical to one already digested is not decoded again.
	seen map[[32]byte]string
	rec  *recorder
}

func newClientState(url string, m *mix, seed int64) (*clientState, error) {
	cs := &clientState{c: newClient(url), sessions: map[string]string{}, handles: map[string]string{},
		rng: rand.New(rand.NewSource(seed)), seen: map[[32]byte]string{}}
	if err := cs.open(m); err != nil {
		cs.c.close()
		return nil, err
	}
	cs.deck = m.deck(cs.rng)
	return cs, nil
}

// open creates the sessions and prepares the prepared classes in each.
func (cs *clientState) open(m *mix) error {
	graphs := []string{m.graph}
	for _, cl := range m.classes {
		for i := range cl.pool {
			if g := m.graphOf(&cl.pool[i]); g != m.graph {
				graphs = append(graphs, g)
			}
		}
	}
	for _, g := range graphs {
		if _, ok := cs.sessions[g]; ok {
			continue
		}
		sid, err := cs.c.newSession(g)
		if err != nil {
			return err
		}
		cs.sessions[g] = sid
		for _, cl := range m.classes {
			if !cl.prepared {
				continue
			}
			h, err := cs.c.prepare(sid, cl.textFor(g))
			if err != nil {
				return fmt.Errorf("preparing %s: %w", cl.name, err)
			}
			cs.handles[g+"/"+cl.name] = h
		}
	}
	return nil
}

// textFor is the prepared text a class runs against graph g.
func (cl *class) textFor(g string) string {
	for _, in := range cl.pool {
		if in.graph == g {
			return in.text
		}
	}
	return cl.text
}

// do runs one read of deck slot sl and verifies its output.
func (cs *clientState) do(m *mix, sl slot) error {
	cl := sl.cl
	if cl.custom != nil {
		return cl.custom(cs)
	}
	i := sl.inst
	if i < 0 {
		i = cs.rng.Intn(len(cl.pool))
	}
	in := &cl.pool[i]
	g := m.graphOf(in)
	start := time.Now()
	var body []byte
	var err error
	if cl.prepared {
		body, err = cs.c.exec(cs.sessions[g], cs.handles[g+"/"+cl.name], in.params)
	} else {
		body, err = cs.c.query(cs.sessions[g], in.text)
	}
	cs.rec.client("http", cl.name, start, int64(len(body)))
	if err != nil {
		return err
	}
	return cs.verify(body, in.want)
}

func (cs *clientState) verify(body []byte, want string) error {
	sum := sha256.Sum256(body)
	got, ok := cs.seen[sum]
	if !ok {
		var err error
		if got, err = responseDigest(body); err != nil {
			return fmt.Errorf("wrong output: %w", err)
		}
		cs.seen[sum] = got
	}
	if got != want {
		return fmt.Errorf("wrong output: got %s, want %s", got, want)
	}
	return nil
}

// tally is what one measured window observed.
type tally struct {
	mu        sync.Mutex
	start     time.Time
	reads     samples
	readDone  []time.Duration // completion time of reads[i], from start
	byClass   map[string]samples
	writes    samples
	lag       samples
	attempted int
	failed    int
	failures  []string
}

func newTally(start time.Time) *tally {
	return &tally{start: start, byClass: map[string]samples{}}
}

func (t *tally) record(class string, write bool, lat time.Duration, err error) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < 5 {
			t.failures = append(t.failures, fmt.Sprintf("%s: %v", class, err))
		}
		return
	}
	if write {
		t.writes = append(t.writes, lat)
	} else {
		t.reads = append(t.reads, lat)
		t.readDone = append(t.readDone, end.Sub(t.start))
	}
	t.byClass[class] = append(t.byClass[class], lat)
}

// recordLag notes how late the open-loop writer issued a write.
func (t *tally) recordLag(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lag = append(t.lag, d)
}

// slice is a run of consecutive read completions.
type slice struct {
	reads samples
	dur   time.Duration
}

// timeSlices is how many slices a window's reads are cut into.
const timeSlices = 10

// slices cuts the reads, in completion order, into consecutive
// groups of size reads each (whole deck rounds for a one-client
// whole-rounds workload) or, with size 0, into timeSlices equal
// groups. A group lasts from the previous group's last completion (the
// window start for the first) to its own last completion.
func (t *tally) slices(size int) []slice {
	idx := make([]int, len(t.reads))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t.readDone[idx[a]] < t.readDone[idx[b]] })
	if size <= 0 {
		size = max(len(idx)/timeSlices, 1)
	}
	var out []slice
	var prev time.Duration
	for lo := 0; lo+size <= len(idx); lo += size {
		sl := slice{}
		for _, i := range idx[lo : lo+size] {
			sl.reads = append(sl.reads, t.reads[i])
		}
		end := t.readDone[idx[lo+size-1]]
		sl.dur, prev = end-prev, end
		out = append(out, sl)
	}
	return out
}

// sliceMedian is the median over slices of f or, with groups > 1,
// the mean over groups of the median over the group's slices, slice j
// belonging to group j mod groups.
func sliceMedian(sls []slice, groups int, f func(slice) float64) float64 {
	var sum float64
	for g := 0; g < groups; g++ {
		var xs []float64
		for j := g; j < len(sls); j += groups {
			xs = append(xs, f(sls[j]))
		}
		sum += median(xs)
	}
	return sum / float64(groups)
}

// runClosed drives every client in a closed loop until the deadline.
// With wholeRounds a client also finishes its current pass through the
// deck, so every class keeps its exact share.
func runClosed(m *mix, clients []*clientState, until time.Time, wholeRounds bool, t *tally) {
	var wg sync.WaitGroup
	for _, cs := range clients {
		wg.Add(1)
		go func(cs *clientState) {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(until) && (!wholeRounds || cs.pos%len(cs.deck) == 0) {
					return
				}
				sl := cs.deck[cs.pos%len(cs.deck)]
				cs.pos++
				err := cs.do(m, sl)
				t.record(sl.cl.name, false, time.Since(now), err)
			}
		}(cs)
	}
	wg.Wait()
}
