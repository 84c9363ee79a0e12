package main

import (
	"fmt"
	"math/rand"
	"strings"

	"gcore"
)

// workload describes one traffic mix. plan builds the seed's inputs
// and their reference digests; it is not part of set-up time. setup
// then builds the system under test from the same seed and is timed.
type workload struct {
	name    string
	persons int
	// graphs is how many SNB social graphs of that size a run
	// generates (from seeds graphs·seed+i); the first is the main one.
	graphs  int
	clients int
	// wholeRounds ends each client's window on a deck boundary.
	wholeRounds bool
	plan        func(seed int64, socials []*gcore.Graph, companies *gcore.Graph) *mix
	// ingest marks the durable write workload.
	ingest bool
}

var workloads = map[string]*workload{
	"interactive": {name: "interactive", persons: 2000, graphs: 1, clients: 2, plan: planInteractive},
	"analytic":    {name: "analytic", persons: 100, graphs: 4, clients: 1, wholeRounds: true, plan: planAnalytic},
	"ingest":      {name: "ingest", persons: 2000, graphs: 1, clients: 1, plan: planIngestReads, ingest: true},
}

// generate builds the seed's SNB dataset with the engine's identifier
// generator and gives every person a unique pid property (0..persons-1
// in identifier order), the key point lookups select by.
func generate(eng *gcore.Engine, persons int, seed int64) (social, companies *gcore.Graph, pids []gcore.NodeID, err error) {
	social, companies = eng.GenerateSNB(gcore.SNBConfig{Persons: persons, Seed: seed})
	for _, id := range social.NodeIDs() {
		n, _ := social.Node(id)
		if !n.Labels.Has("Person") {
			continue
		}
		p := n.Props.Clone()
		p.Set("pid", gcore.Int(int64(len(pids))))
		if err := social.SetNodeProps(id, p); err != nil {
			return nil, nil, nil, err
		}
		pids = append(pids, id)
	}
	return social, companies, pids, nil
}

// datasets generates and registers a workload's graphs in eng: its
// social graphs (renamed <name>_<i> when there are several) and the
// first one's company graph.
func datasets(eng *gcore.Engine, w *workload, seed int64) (socials []*gcore.Graph, companies *gcore.Graph, err error) {
	for i := 0; i < w.graphs; i++ {
		gseed := seed
		if w.graphs > 1 {
			gseed = seed*int64(w.graphs) + int64(i)
		}
		social, comp, _, err := generate(eng, w.persons, gseed)
		if err != nil {
			return nil, nil, err
		}
		if w.graphs > 1 {
			social.SetName(fmt.Sprintf("%s_%d", social.Name(), i))
		}
		if err := eng.RegisterGraph(social); err != nil {
			return nil, nil, err
		}
		if i == 0 {
			if err := eng.RegisterGraph(comp); err != nil {
				return nil, nil, err
			}
			companies = comp
		}
		socials = append(socials, social)
	}
	return socials, companies, nil
}

func pidParams(rng *rand.Rand, persons, n int) []map[string]gcore.Value {
	out := make([]map[string]gcore.Value, n)
	for i, p := range rng.Perm(persons)[:n] {
		out[i] = map[string]gcore.Value{"pid": gcore.Int(int64(p))}
	}
	return out
}

func preparedClass(name, text string, slots int, params []map[string]gcore.Value) *class {
	c := &class{name: name, prepared: true, text: text, slots: slots}
	for _, p := range params {
		c.pool = append(c.pool, instance{text: text, params: p})
	}
	return c
}

const pointText = `SELECT n.firstName AS first, n.lastName AS last, n.employer AS employer
MATCH (n:Person) WHERE n.pid = $pid`

// adhocVariants is how many literal-inlined texts the ad hoc class
// draws from: four times the plan cache's 256 entries, so the class
// keeps missing the cache while the prepared classes fit in it.
const adhocVariants = 1024

// planInteractive: short selective reads over SNB persons=2000. The
// deck's 50 slots, ordered by class latency, are adhoc 15, point 20,
// company_join 5, two_hop 6, reach 3 and shortest 1: the median falls
// in the middle of point, p95 in the middle of reach and p99 in the
// middle of shortest, each away from a class boundary.
func planInteractive(seed int64, socials []*gcore.Graph, companies *gcore.Graph) *mix {
	social := socials[0]
	rng := rand.New(rand.NewSource(seed))
	persons := social.NumNodesWithLabel("Person")
	var companyParams []map[string]gcore.Value
	for _, id := range companies.NodeIDs() {
		n, _ := companies.Node(id)
		companyParams = append(companyParams, map[string]gcore.Value{"company": n.Props.Get("name")})
	}
	adhoc := &class{name: "adhoc", slots: 15}
	for _, p := range rng.Perm(persons)[:adhocVariants] {
		adhoc.pool = append(adhoc.pool, instance{text: fmt.Sprintf(
			"SELECT n.firstName AS first, n.lastName AS last MATCH (n:Person) WHERE n.pid = %d", p)})
	}
	return &mix{graph: social.Name(), classes: []*class{
		preparedClass("point", pointText, 20, pidParams(rng, persons, 512)),
		adhoc,
		preparedClass("two_hop", `SELECT m.firstName AS friend, c.name AS city
MATCH (n:Person)-[:knows]->(m:Person)-[:isLocatedIn]->(c:City) WHERE n.pid = $pid`, 6, pidParams(rng, persons, 32)),
		preparedClass("company_join", fmt.Sprintf(`CONSTRUCT (c)<-[:worksAt]-(n)
MATCH (c:Company) ON %s, (n:Person) ON %s
WHERE c.name IN n.employer AND c.name = $company`, companies.Name(), social.Name()), 5, companyParams),
		preparedClass("reach", `CONSTRUCT (m)
MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.pid = $pid`, 3, pidParams(rng, persons, 16)),
		preparedClass("shortest", `CONSTRUCT (n)-/@p:toPerson{distance:=c}/->(m)
MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) WHERE n.pid = $pid`, 1, pidParams(rng, persons, 4)),
	}}
}

// planAnalytic: the guided tour's statements (paper lines 20, 23, 28,
// 32 and 39) over four SNB persons=100 graphs, prepared in one session
// per graph and run through POST /exec; a deck pass runs every
// statement once on every graph. The statements' work depends on the
// graph (the co-located ones fall in two modes ~25% apart, by seed), so
// each run spreads it over four graphs. company_group, the cheapest,
// comes first so the set-up warm-up runs it. social_graph
// is the generated graph; line 39's GRAPH VIEW wrapper is dropped so
// the workload stays read-only. The generator may name more persons
// "John Doe" than its anchor; "n.anchor = TRUE" pins the tour's
// single-source statements to the one anchor person, so a seed does
// not change their work by whole multiples.
func planAnalytic(_ int64, socials []*gcore.Graph, _ *gcore.Graph) *mix {
	johnDoe := "n.firstName = 'John' AND n.lastName = 'Doe' AND n.anchor = TRUE"
	stmts := []struct{ name, text string }{
		{"company_group", `CONSTRUCT social_graph,
          (x GROUP e :Company {name:=e}) <-[y:worksAt]-(n)
MATCH (n:Person {employer=e})`},
		{"nr_messages", `CONSTRUCT social_graph,
          (n)-[e]->(m) SET e.nr_messages := COUNT(*)
MATCH (n)-[e:knows]->(m)
WHERE (n:Person) AND (m:Person)
OPTIONAL (n)<-[c1]-(msg1:Post|Comment),
         (msg1)-[:reply_of]-(msg2),
         (msg2:Post|Comment)-[c2]->(m)
WHERE (c1:has_creator) AND (c2:has_creator)`},
		{"colocated_reach", `CONSTRUCT (m)
MATCH (n:Person) -/<:knows*>/->(m:Person)
WHERE ` + johnDoe + `
AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)`},
		{"colocated_shortest", `CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m)
MATCH (n) -/3 SHORTEST p<:knows*> COST c/->(m)
WHERE (n:Person) AND (m:Person)
AND ` + johnDoe + `
AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)`},
		{"colocated_all", `CONSTRUCT (n)-/p/->(m)
MATCH (n:Person)-/ALL p<:knows*>/->(m:Person)
WHERE ` + johnDoe + `
AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)`},
	}
	m := &mix{graph: socials[0].Name()}
	for _, s := range stmts {
		c := &class{name: s.name, prepared: true, slots: len(socials)}
		for _, g := range socials {
			c.pool = append(c.pool, instance{text: strings.ReplaceAll(s.text, "social_graph", g.Name()), graph: g.Name()})
		}
		m.classes = append(m.classes, c)
	}
	return m
}
