package main

// Workload generation. Everything the benchmark sends — the tenant
// corpus, the personal schemas, the request mix and the admin PUTs —
// is derived here from the seed alone, before matchd starts, so the
// same seed always produces byte-identical inputs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/httpserve"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/xmlschema"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlWarm  = "warm-mix"
	wlFresh = "fresh-personals"
)

var workloadNames = []string{wlWarm, wlFresh}

// specs is the request mix's matcher spread: both exhaustive systems
// and the three non-exhaustive improvements.
var specs = []string{"exhaustive", "parallel", "beam:16", "topk:0.035", "clustered"}

// limits is the set Request.Limit is drawn from.
var limits = []int{0, 10}

// hostileLetters are the letters fresh personals and PUT schemas
// are edited with: Serbian Latin diacritics and Serbian Cyrillic, the
// two scripts of a digraphic language.
var hostileLetters = []rune("čćšžđČĆŠŽĐабвгдђежзијклљмнњопрстћуфхцчџш")

// params sizes one run. defaultParams gives the published benchmark;
// tests shrink it.
type params struct {
	Tenants, Personals, Schemas int
	Delta                       float64
	// Conns is the number of concurrent connections (and load
	// workers) of the saturation phase.
	Conns int
	// Rounds is how many times the timed phases alternate; set-up is
	// measured Rounds+1 times.
	Rounds int
	// SeqReads is the number of reads sent one at a time over one
	// connection, SatReads the number sent closed loop over Conns
	// connections, and UpdateOps the number of full-repository PUTs
	// sent one at a time; each is split evenly over the rounds. Read
	// counts are whole stratified blocks per round, so every round
	// sends the same mix.
	SeqReads, SatReads, UpdateOps int
	// CompactAfter and CompactInterval are matchd's compaction flags.
	CompactAfter    int
	CompactInterval time.Duration
	// TraceReads is how many read requests the traced run replays.
	TraceReads int
}

// block is the size of one stratified block of reads: every tenant,
// planted personal, spec and limit once.
func (p params) block() int { return p.Tenants * p.Personals * len(specs) * len(limits) }

// rates are a workload's nominal speeds on a 2-CPU Xeon sandbox:
// reads a second one at a time and over two connections, and seconds
// per PUT. They size the work of a run; they are not re-measured.
type rates struct{ seq, sat, put float64 }

var nominal = map[string]rates{
	wlWarm:  {seq: 120, sat: 230, put: 0.040},
	wlFresh: {seq: 80, sat: 170, put: 0.085},
}

// defaultParams returns the benchmark's settings for a run of workload
// name that measures for about the given number of seconds.
//
// The amounts of work are fixed, not timed, so that every run of a
// workload does the same work: at the nominal rates, about 40% of the
// run goes to reads one at a time, 35% to the saturation phase and 25%
// to PUTs, and at least 100 PUTs are sent, the fewest that leave ten
// samples beyond the update p90 the report prints.
func defaultParams(name string, seconds int, conns int) params {
	const tenants, personals, rounds = 4, 3, 6
	p := params{
		Tenants:         tenants,
		Personals:       personals,
		Schemas:         200,
		Delta:           0.4,
		Conns:           conns,
		Rounds:          rounds,
		CompactAfter:    8,
		CompactInterval: 2 * time.Second,
		TraceReads:      12 * seconds,
	}
	nr := nominal[name]
	blocks := func(share, rate float64) int {
		n := int(share*float64(seconds)*rate) / (rounds * p.block())
		return rounds * p.block() * max(n, 1)
	}
	p.SeqReads = blocks(0.40, nr.seq)
	p.SatReads = blocks(0.35, nr.sat)
	puts := max(int(0.25*float64(seconds)/nr.put), 100)
	p.UpdateOps = rounds * ((puts + rounds - 1) / rounds)
	return p
}

// matchOp is one match request.
type matchOp struct {
	Tenant   string
	Personal *xmlschema.Schema
	Spec     string
	Limit    int
	// Fresh marks a personal never sent before (fresh-personals).
	Fresh bool
}

// request returns the wire request of op.
func (m *matchOp) request(delta float64) *httpserve.MatchRequest {
	return &httpserve.MatchRequest{
		Personal: httpserve.WireSchema(m.Personal),
		Delta:    delta,
		Matcher:  m.Spec,
		Limit:    m.Limit,
	}
}

// putOp is one full-repository admin PUT: the tenant's whole desired
// state after adding, replacing or removing one schema.
type putOp struct {
	Seq    int
	Tenant string
	Kind   string
	Repo   *xmlschema.Repository
}

// op is one operation of the traced replay; exactly one of Match and
// Put is set.
type op struct {
	Match *matchOp
	Put   *putOp
}

// workload is everything one run sends, in order.
type workload struct {
	Name  string
	P     params
	Fleet []*synth.Tenant
	// Seq are the reads sent one at a time, Sat the saturation phase's
	// reads and Updates the PUTs, each in send order.
	Seq, Sat []*matchOp
	Updates  []*putOp
}

// round returns round k's share of ops, for k in [0, rounds).
func round[T any](ops []T, rounds, k int) []T {
	return ops[k*len(ops)/rounds : (k+1)*len(ops)/rounds]
}

// expectedState returns each tenant's repository after the PUTs that
// were sent (in order), and how many each tenant received.
func (w *workload) expectedState(sent []*putOp) (map[string]*xmlschema.Repository, map[string]int) {
	repos := initialRepos(w)
	counts := make(map[string]int, len(w.Fleet))
	for _, u := range sent {
		repos[u.Tenant] = u.Repo
		counts[u.Tenant]++
	}
	return repos, counts
}

// initialRepos maps each tenant to its generated repository.
func initialRepos(w *workload) map[string]*xmlschema.Repository {
	out := make(map[string]*xmlschema.Repository, len(w.Fleet))
	for _, tn := range w.Fleet {
		out[tn.Name] = tn.Repo()
	}
	return out
}

// fleetConfig is the synth configuration of every tenant: uniform
// sizes of 8–24 elements per schema, about 3.7k elements per tenant.
func fleetConfig(seed uint64, schemas int) synth.Config {
	cfg := synth.DefaultConfig(seed)
	cfg.NumSchemas = schemas
	cfg.SizeDist = "uniform"
	return cfg
}

// corpusSeed fixes the fleet: every run serves the same corpus, and the
// run's seed draws the traffic — request mix, fresh personals and PUTs.
// Runs with different seeds then differ in what they send, not in how
// much work the repositories hold.
const corpusSeed = 1

// newWorkload generates the named workload's traffic from seed.
func newWorkload(name string, seed uint64, p params) (*workload, error) {
	fleet, err := synth.GenerateTenants(corpusSeed, p.Tenants, p.Personals, fleetConfig(corpusSeed, p.Schemas))
	if err != nil {
		return nil, err
	}
	w := &workload{Name: name, P: p, Fleet: fleet}
	g := &generator{
		w:       w,
		rng:     stats.NewRNG(seed ^ 0x70657266), // "perf"
		mirrors: make(map[string]*mirror, len(fleet)),
	}
	for _, tn := range fleet {
		g.mirrors[tn.Name] = newMirror(tn.Repo())
	}
	fresh := name == wlFresh
	switch name {
	case wlWarm, wlFresh:
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	reads := func(n int) ([]*matchOp, error) {
		out := make([]*matchOp, n)
		for i := range out {
			m, err := g.matchOp(fresh)
			if err != nil {
				return nil, err
			}
			out[i] = m
		}
		return out, nil
	}
	if w.Seq, err = reads(p.SeqReads); err != nil {
		return nil, err
	}
	if w.Sat, err = reads(p.SatReads); err != nil {
		return nil, err
	}
	for i := 0; i < p.UpdateOps; i++ {
		u, err := g.putOp()
		if err != nil {
			return nil, err
		}
		w.Updates = append(w.Updates, u)
	}
	return w, nil
}

// generator draws the request mix and evolves the PUT mirrors.
type generator struct {
	w       *workload
	rng     *stats.RNG
	mirrors map[string]*mirror
	fresh   int
	puts    int
	// block holds the rest of the current stratified block.
	block []matchOp
}

// matchOp draws the next request of the mix. The mix is stratified:
// every block of requests holds each (tenant, personal, spec, limit)
// combination exactly once, in a random order, so runs with different
// seeds send the same amount of each kind of work and differ only in
// its order.
func (g *generator) matchOp(fresh bool) (*matchOp, error) {
	if len(g.block) == 0 {
		for _, tn := range g.w.Fleet {
			for _, p := range tn.Personals() {
				for _, sp := range specs {
					for _, lim := range limits {
						g.block = append(g.block, matchOp{Tenant: tn.Name, Personal: p, Spec: sp, Limit: lim})
					}
				}
			}
		}
		for i := len(g.block) - 1; i > 0; i-- {
			j := g.rng.Intn(i + 1)
			g.block[i], g.block[j] = g.block[j], g.block[i]
		}
	}
	m := g.block[0]
	g.block = g.block[1:]
	if fresh {
		g.fresh++
		p, err := freshPersonal(g.rng, m.Personal, g.fresh)
		if err != nil {
			return nil, err
		}
		m.Personal, m.Fresh = p, true
	}
	return &m, nil
}

// freshPersonal derives a personal schema never sent before from a
// planted one: a unique schema name, and a one-character edit with a
// hostile letter on half the element names (rounded up), so every
// fresh personal of one base brings the same number of new names.
func freshPersonal(rng *stats.RNG, base *xmlschema.Schema, seq int) (*xmlschema.Schema, error) {
	n := base.Len()
	edit := make([]bool, n)
	for i := 0; i < (n+1)/2; i++ {
		edit[i] = true
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		edit[i], edit[j] = edit[j], edit[i]
	}
	var copyTree func(e *xmlschema.Element) *xmlschema.Element
	copyTree = func(e *xmlschema.Element) *xmlschema.Element {
		name := e.Name
		if edit[e.ID()] {
			name = editName(rng, name)
		}
		c := xmlschema.NewElement(name)
		c.Type = e.Type
		for _, ch := range e.Children {
			c.Add(copyTree(ch))
		}
		return c
	}
	return xmlschema.NewSchema(fmt.Sprintf("%s-%d", base.Name, seq), copyTree(base.Root()))
}

// editName applies one one-character edit: a hostile letter replaces
// a character or is inserted.
func editName(rng *stats.RNG, name string) string {
	rs := []rune(name)
	letter := hostileLetters[rng.Intn(len(hostileLetters))]
	pos := rng.Intn(len(rs) + 1)
	if pos < len(rs) && rng.Bool(0.5) {
		rs[pos] = letter
		return string(rs)
	}
	out := make([]rune, 0, len(rs)+1)
	out = append(out, rs[:pos]...)
	out = append(out, letter)
	return string(append(out, rs[pos:]...))
}

// putOp advances one tenant's mirror, round-robin over tenants, by
// one add → replace → remove cycle step.
func (g *generator) putOp() (*putOp, error) {
	seq := g.puts
	g.puts++
	tn := g.w.Fleet[seq%len(g.w.Fleet)]
	m := g.mirrors[tn.Name]
	kind := (seq / len(g.w.Fleet)) % 3
	if kind == 2 && len(m.added) == 0 {
		kind = 1
	}
	var label string
	switch kind {
	case 0:
		donor := m.schemas[m.names[g.rng.Intn(len(m.names))]]
		clone, err := donor.CloneAs(fmt.Sprintf("churn%d", seq))
		if err != nil {
			return nil, err
		}
		m.add(clone)
		m.added = append(m.added, clone.Name)
		label = "add"
	case 1:
		victim := m.schemas[m.names[g.rng.Intn(len(m.names))]]
		clone, err := victim.CloneAs(victim.Name)
		if err != nil {
			return nil, err
		}
		el := clone.ByID(g.rng.Intn(clone.Len()))
		el.Name = editName(g.rng, el.Name)
		m.schemas[clone.Name] = clone
		label = "replace"
	default:
		m.remove(m.added[0])
		m.added = m.added[1:]
		label = "remove"
	}
	repo, err := m.repo()
	if err != nil {
		return nil, err
	}
	return &putOp{Seq: seq, Tenant: tn.Name, Kind: label, Repo: repo}, nil
}

// mirror is the generator's copy of one tenant repository:
// insertion-ordered names over a schema map, rebuilt into a fresh
// Repository for every PUT.
type mirror struct {
	names   []string
	schemas map[string]*xmlschema.Schema
	added   []string
}

func newMirror(repo *xmlschema.Repository) *mirror {
	m := &mirror{schemas: make(map[string]*xmlschema.Schema, repo.Len())}
	for _, s := range repo.Schemas() {
		m.add(s)
	}
	return m
}

func (m *mirror) add(s *xmlschema.Schema) {
	m.names = append(m.names, s.Name)
	m.schemas[s.Name] = s
}

func (m *mirror) remove(name string) {
	delete(m.schemas, name)
	for i, n := range m.names {
		if n == name {
			m.names = append(m.names[:i], m.names[i+1:]...)
			return
		}
	}
}

func (m *mirror) repo() (*xmlschema.Repository, error) {
	repo := xmlschema.NewRepository()
	for _, n := range m.names {
		if err := repo.Add(m.schemas[n]); err != nil {
			return nil, err
		}
	}
	return repo, nil
}

// writeCorpus writes each tenant's repository as <tenant>.xml under
// dir, the layout matchd -corpus reads.
func writeCorpus(dir string, fleet []*synth.Tenant) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, tn := range fleet {
		var buf bytes.Buffer
		if err := xmlschema.WriteRepository(&buf, tn.Repo()); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, tn.Name+".xml"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// encode writes every input of the workload — corpus, request bodies
// and PUT bodies — to out, in send order. Two workloads are the same
// exactly when their encodings are.
func (w *workload) encode(out io.Writer) error {
	enc := json.NewEncoder(out)
	for _, tn := range w.Fleet {
		fmt.Fprintf(out, "tenant %s\n", tn.Name)
		if err := xmlschema.WriteRepository(out, tn.Repo()); err != nil {
			return err
		}
	}
	for _, m := range append(append([]*matchOp(nil), w.Seq...), w.Sat...) {
		fmt.Fprintf(out, "match %s\n", m.Tenant)
		if err := enc.Encode(m.request(w.P.Delta)); err != nil {
			return err
		}
	}
	for _, u := range w.Updates {
		fmt.Fprintf(out, "put %d %s %s\n", u.Seq, u.Tenant, u.Kind)
		if err := xmlschema.WriteRepository(out, u.Repo); err != nil {
			return err
		}
	}
	return nil
}
