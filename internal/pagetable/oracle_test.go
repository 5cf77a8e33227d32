package pagetable

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/mem"
)

// refVMA is the per-page software MMU: one State, dirty bit, in-flight
// deadline and pool redirect per page. It is the reference model the
// run-length extent list must match op for op, and it is deliberately
// simple — every operation walks its range page by page.
type refVMA struct {
	name       string
	prot       Prot
	segs       []Backing
	states     []State
	counts     [numStates]int
	dirty      []bool
	dirtyCount int
	inflight   map[int]time.Duration
	redirect   map[int]*mem.Pool
}

func (v *refVMA) pages() int { return len(v.states) }

func (v *refVMA) poolAt(i int) *mem.Pool {
	if p := v.redirect[i]; p != nil {
		return p
	}
	for _, s := range v.segs {
		if i >= s.First && i < s.First+s.Pages {
			return s.Pool
		}
	}
	return nil
}

func (v *refVMA) setState(i int, s State) {
	v.counts[v.states[i]]--
	v.states[i] = s
	v.counts[s]++
}

func (v *refVMA) markDirty(i int) {
	if !v.dirty[i] {
		v.dirty[i] = true
		v.dirtyCount++
	}
}

// refAS is the reference address space. It has no address layout: the
// property test places VMAs far apart, so overlap checks never fire.
type refAS struct {
	vmas  []*refVMA
	local *mem.Tracker
	lat   mem.LatencyModel
	stats Stats
	rss   int64
	clock func() time.Duration
	wslog *WorkingSetLog
}

func (as *refAS) allocLocal(bytes int64) error {
	if err := as.local.Alloc(bytes); err != nil {
		return err
	}
	as.rss += bytes
	as.stats.LocalAllocated += bytes
	return nil
}

func (as *refAS) addVMA(name string, pages int, prot Prot, pool *mem.Pool, base uint64, init State) (*refVMA, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("pagetable: VMA %q has %d pages", name, pages)
	}
	if (init == RemoteDirect || init == RemoteLazy) && pool == nil {
		return nil, fmt.Errorf("pagetable: VMA %q: remote state without a pool", name)
	}
	if init == RemoteDirect && !pool.Kind().ByteAddressable() {
		return nil, fmt.Errorf("pagetable: VMA %q: pool %s is not byte-addressable", name, pool.Kind())
	}
	if init == Local {
		if err := as.allocLocal(int64(pages) * mem.PageSize); err != nil {
			return nil, err
		}
	}
	v := &refVMA{name: name, prot: prot, states: make([]State, pages), dirty: make([]bool, pages),
		inflight: map[int]time.Duration{}, redirect: map[int]*mem.Pool{}}
	for i := range v.states {
		v.states[i] = init
	}
	v.counts[init] = pages
	if pool != nil {
		v.segs = []Backing{{First: 0, Pages: pages, Pool: pool, Base: base}}
	}
	as.vmas = append(as.vmas, v)
	return v, nil
}

// setBacking validates everything — range, pool, overlap, local pages —
// before it charges or mutates anything.
func (as *refAS) setBacking(v *refVMA, first, count int, pool *mem.Pool, base uint64, s State) error {
	if first < 0 || count <= 0 || first+count > v.pages() {
		return fmt.Errorf("pagetable: SetBacking [%d,%d) outside VMA %q", first, first+count, v.name)
	}
	switch s {
	case RemoteDirect:
		if pool == nil || !pool.Kind().ByteAddressable() {
			return fmt.Errorf("pagetable: VMA %q: RemoteDirect requires a byte-addressable pool", v.name)
		}
	case RemoteLazy:
		if pool == nil {
			return fmt.Errorf("pagetable: VMA %q: RemoteLazy requires a pool", v.name)
		}
	}
	b := Backing{First: first, Pages: count, Pool: pool, Base: base}
	if pool != nil {
		for _, o := range v.segs {
			if b.First < o.First+o.Pages && o.First < b.First+b.Pages {
				return fmt.Errorf("pagetable: VMA %q: backing [%d,%d) overlaps existing [%d,%d)",
					v.name, b.First, b.First+b.Pages, o.First, o.First+o.Pages)
			}
		}
	}
	for i := first; i < first+count; i++ {
		if v.states[i] == Local {
			return fmt.Errorf("pagetable: VMA %q page %d already local", v.name, i)
		}
	}
	if s == Local {
		if err := as.allocLocal(int64(count) * mem.PageSize); err != nil {
			return err
		}
	}
	if pool != nil {
		v.segs = append(v.segs, b)
		sort.Slice(v.segs, func(i, j int) bool { return v.segs[i].First < v.segs[j].First })
	}
	for i := first; i < first+count; i++ {
		v.setState(i, s)
	}
	return nil
}

func (as *refAS) access(rng *rand.Rand, v *refVMA, readPages, writePages int) (AccessResult, error) {
	var total AccessResult
	if writePages > 0 {
		res, err := as.accessVMA(rng, v, 0, writePages, true)
		total = addResults(total, res)
		if err != nil {
			return total, err
		}
	}
	if readPages > writePages {
		res, err := as.accessVMA(rng, v, writePages, readPages-writePages, false)
		total = addResults(total, res)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (as *refAS) accessVMA(rng *rand.Rand, v *refVMA, first, count int, write bool) (AccessResult, error) {
	var res AccessResult
	if count <= 0 {
		return res, nil
	}
	if first < 0 || first+count > v.pages() {
		return res, fmt.Errorf("pagetable: access [%d,%d) outside VMA %q (%d pages)", first, first+count, v.name, v.pages())
	}
	if (write && v.prot&Write == 0) || (!write && v.prot&Read == 0) {
		return res, &ErrProt{VMA: v.name, Write: write}
	}
	var toZero, inflightHits int
	var inflightReady time.Duration
	var fetch, cow, direct refTally
	record := as.wslog != nil && as.wslog.active()
	var runPool *mem.Pool
	var runFirst, runLen int
	flushRun := func() {
		if runLen > 0 {
			as.wslog.record(v.name, runFirst, runLen, runPool.Kind().String())
			runLen = 0
		}
	}
	for i := first; i < first+count; i++ {
		if write {
			v.markDirty(i)
		}
		switch v.states[i] {
		case Local:
			if dl, ok := v.inflight[i]; ok {
				delete(v.inflight, i)
				inflightHits++
				inflightReady = max(inflightReady, dl)
			}
		case Unmapped:
			toZero++
			v.setState(i, Local)
		case RemoteDirect:
			if write {
				cow = cow.add(v.poolAt(i))
				v.setState(i, Local)
			} else {
				direct = direct.add(v.poolAt(i))
			}
		case RemoteLazy:
			p := v.poolAt(i)
			fetch = fetch.add(p)
			if record {
				if runLen > 0 && p == runPool && i == runFirst+runLen {
					runLen++
				} else {
					flushRun()
					runPool, runFirst, runLen = p, i, 1
				}
			}
			v.setState(i, Local)
		}
	}
	if record {
		flushRun()
	}
	var lat time.Duration
	if inflightHits > 0 {
		res.PrefetchHits = inflightHits
		res.MinorFaults += inflightHits
		lat += time.Duration(inflightHits) * as.lat.MinorFaultOverhead
		if as.clock != nil {
			if now := as.clock(); inflightReady > now {
				res.PrefetchWait = inflightReady - now
				lat += res.PrefetchWait
			}
		}
	}
	if toZero > 0 {
		res.MinorFaults += toZero
		lat += time.Duration(toZero) * as.lat.MinorFaultOverhead
		if err := as.allocLocal(int64(toZero) * mem.PageSize); err != nil {
			return res, err
		}
	}
	for _, c := range cow {
		pool, n := c.pool, c.n
		res.MinorFaults += n
		res.CowPages += n
		lat += time.Duration(n)*as.lat.MinorFaultOverhead + pool.DirectAccessCost(n) + time.Duration(n)*as.lat.CowPageCopy
		if err := as.allocLocal(int64(n) * mem.PageSize); err != nil {
			return res, err
		}
	}
	sort.SliceStable(fetch, func(i, j int) bool { return fetch[i].pool.Kind().String() < fetch[j].pool.Kind().String() })
	maxFetch := 0
	for _, c := range fetch {
		pool, n := c.pool, c.n
		d, out, err := pool.Fetch(rng, n)
		res.Retries += out.Retries
		if res.FaultTrace == "" {
			res.FaultTrace = out.FaultTrace
		}
		if err != nil {
			as.stats.FetchErrors++
			as.stats.Retries += int64(out.Retries)
			return res, fmt.Errorf("pagetable: fetch %d pages of %q from pool %s: %w", n, v.name, pool.Kind(), err)
		}
		res.MajorFaults += n
		res.FetchedPages += n
		flat := time.Duration(n)*as.lat.FaultOverhead + d
		lat += flat
		res.FetchLat += flat
		if kind := pool.Kind().String(); n > maxFetch || (n == maxFetch && kind < res.FetchPool) {
			maxFetch = n
			res.FetchPool = kind
		}
		if err := as.allocLocal(int64(n) * mem.PageSize); err != nil {
			return res, err
		}
	}
	for _, c := range direct {
		res.DirectPages += c.n
		lat += c.pool.DirectAccessCost(c.n)
	}
	res.Latency = lat
	as.stats.addAccess(res)
	return res, nil
}

// refTally counts pages per pool in first-seen order.
type refTally []struct {
	pool *mem.Pool
	n    int
}

func (t refTally) add(p *mem.Pool) refTally {
	for i := range t {
		if t[i].pool == p {
			t[i].n++
			return t
		}
	}
	return append(t, struct {
		pool *mem.Pool
		n    int
	}{p, 1})
}

func (as *refAS) makeResident(v *refVMA, first, count int) error {
	if first < 0 || count <= 0 || first+count > v.pages() {
		return fmt.Errorf("pagetable: MakeResident [%d,%d) outside VMA %q", first, first+count, v.name)
	}
	var toAlloc int
	for i := first; i < first+count; i++ {
		if v.states[i] != Local {
			toAlloc++
			v.setState(i, Local)
		}
	}
	if toAlloc == 0 {
		return nil
	}
	return as.allocLocal(int64(toAlloc) * mem.PageSize)
}

func (as *refAS) markInFlight(v *refVMA, first, count int, readyAt time.Duration) (int, error) {
	if first < 0 || count <= 0 || first+count > v.pages() {
		return 0, fmt.Errorf("pagetable: MarkInFlight [%d,%d) outside VMA %q", first, first+count, v.name)
	}
	var marked int
	for i := first; i < first+count; i++ {
		if v.states[i] == RemoteLazy {
			marked++
		}
	}
	if marked == 0 {
		return 0, nil
	}
	if err := as.allocLocal(int64(marked) * mem.PageSize); err != nil {
		return 0, err
	}
	for i := first; i < first+count; i++ {
		if v.states[i] == RemoteLazy {
			v.inflight[i] = readyAt
			v.setState(i, Local)
		}
	}
	as.stats.PrefetchedPages += int64(marked)
	return marked, nil
}

func (as *refAS) promoteRange(v *refVMA, first, count int, cache *mem.Pool) (int, error) {
	if cache == nil || !cache.Kind().ByteAddressable() {
		return 0, fmt.Errorf("pagetable: PromoteRange requires a byte-addressable cache pool")
	}
	if first < 0 || count <= 0 || first+count > v.pages() {
		return 0, fmt.Errorf("pagetable: PromoteRange [%d,%d) outside VMA %q", first, first+count, v.name)
	}
	var n int
	for i := first; i < first+count; i++ {
		if v.states[i] == RemoteLazy {
			v.redirect[i] = cache
			v.setState(i, RemoteDirect)
			n++
		}
	}
	return n, nil
}

func (as *refAS) grow(v *refVMA, pages int) error {
	if pages <= 0 {
		return fmt.Errorf("pagetable: grow by %d pages", pages)
	}
	v.states = append(v.states, make([]State, pages)...)
	v.dirty = append(v.dirty, make([]bool, pages)...)
	v.counts[Unmapped] += pages
	return nil
}

func (as *refAS) dirtyBytes() int64 {
	var pages int
	for _, v := range as.vmas {
		pages += v.dirtyCount
	}
	return int64(pages) * mem.PageSize
}

func (as *refAS) markClean() {
	for _, v := range as.vmas {
		clear(v.dirty)
		v.dirtyCount = 0
	}
}

// oracleWorld is one side of the property test: a tracker, pools, a
// working-set log and a virtual clock private to one model, built
// identically for both so that pool state and fault verdicts evolve in
// lockstep.
type oracleWorld struct {
	tracker *mem.Tracker
	pools   []*mem.Pool // cxl, cxl, rdma, nas, promotion cache (cxl)
	log     *WorkingSetLog
	now     time.Duration
	rng     *rand.Rand
}

// everyNth fails every nth fetch verdict: deterministic in the call
// sequence, which both models share.
type everyNth struct{ n, calls int }

func (f *everyNth) FetchVerdict(pool string, _ time.Duration) mem.FetchVerdict {
	if f.calls++; f.calls%f.n == 0 {
		return mem.FetchVerdict{Err: &mem.ErrFlakyFetch{Pool: pool}, FaultTrace: fmt.Sprintf("f%d", f.calls)}
	}
	return mem.FetchVerdict{}
}

func (f *everyNth) PoolDown(string, time.Duration) (string, bool) { return "", false }

func newOracleWorld(seed int64, capacity int64, flaky int) *oracleWorld {
	lat := mem.DefaultLatencyModel()
	w := &oracleWorld{
		tracker: mem.NewTracker("node", capacity),
		pools: []*mem.Pool{mem.NewPool(mem.CXL, 0, lat), mem.NewPool(mem.CXL, 0, lat),
			mem.NewPool(mem.RDMA, 0, lat), mem.NewPool(mem.NAS, 0, lat), mem.NewPool(mem.CXL, 0, lat)},
		log: &WorkingSetLog{},
		rng: rand.New(rand.NewSource(seed)),
	}
	if flaky > 0 {
		w.pools[2].SetFaultAgent(&everyNth{n: flaky}, func() time.Duration { return w.now })
	}
	return w
}

// poolIndex names a pool by its position in w.pools (-1 for nil), so
// the two worlds' pools can be compared.
func (w *oracleWorld) poolIndex(p *mem.Pool) int {
	if p == nil {
		return -1
	}
	return slices.Index(w.pools, p)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkRuns asserts the extent list's invariants: sorted, contiguous,
// covering [0, Pages()), no equal neighbours, and counts, dirty pages
// and in-flight deadlines consistent with the runs.
func checkRuns(v *VMA) error {
	var counts [numStates]int
	var dirty, start int
	for k, r := range v.runs {
		if r.end <= start {
			return fmt.Errorf("run %d [%d,%d) is empty or unsorted", k, start, r.end)
		}
		if k > 0 && r.same(v.runs[k-1]) {
			return fmt.Errorf("runs %d and %d are equal neighbours", k-1, k)
		}
		if !r.flying && r.ready != 0 {
			return fmt.Errorf("run %d has a deadline but is not in flight", k)
		}
		counts[r.state] += r.end - start
		if r.dirty {
			dirty += r.end - start
		}
		start = r.end
	}
	if counts != v.counts || dirty != v.dirtyCount {
		return fmt.Errorf("runs count %v dirty %d, VMA says %v dirty %d", counts, dirty, v.counts, v.dirtyCount)
	}
	return nil
}

// TestExtentMatchesPerPageOracle drives the extent MMU and the per-page
// reference with the same random op sequences and compares everything
// observable after every op: per-page state and pool, counts, dirty
// pages, RSS, stats, access results, errors and the working-set log.
func TestExtentMatchesPerPageOracle(t *testing.T) {
	seeds, steps := 300, 150
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := runOracle(seed, steps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func runOracle(seed int64, steps int) error {
	drv := rand.New(rand.NewSource(seed))
	var capacity int64 // a third of the seeds run out of node memory
	if seed%3 == 0 {
		capacity = int64(40+drv.Intn(200)) * mem.PageSize
	}
	flaky := 0 // a quarter fail every few RDMA fetch attempts
	if seed%4 == 1 {
		flaky = 2 + drv.Intn(6)
	}
	ew, rw := newOracleWorld(seed, capacity, flaky), newOracleWorld(seed, capacity, flaky)
	as := NewAddressSpace(ew.tracker, mem.DefaultLatencyModel())
	as.SetClock(func() time.Duration { return ew.now })
	as.SetWorkingSetLog(ew.log)
	ref := &refAS{local: rw.tracker, lat: mem.DefaultLatencyModel(), clock: func() time.Duration { return rw.now }, wslog: rw.log}
	if drv.Intn(2) == 0 {
		ew.log.StartRecording()
		rw.log.StartRecording()
	}
	var vmas []*VMA
	var refs []*refVMA
	states := []State{Unmapped, RemoteDirect, RemoteLazy, Local}
	// pick returns a pool index, -1 for nil.
	pick := func() int { return drv.Intn(len(ew.pools)+1) - 1 }
	poolOf := func(w *oracleWorld, i int) *mem.Pool {
		if i < 0 {
			return nil
		}
		return w.pools[i]
	}
	// span picks a range, occasionally one reaching outside the VMA.
	span := func(pages int) (int, int) {
		first := drv.Intn(pages)
		count := 1 + drv.Intn(pages-first)
		if drv.Intn(20) == 0 {
			count += 3
		}
		return first, count
	}
	for step := 0; step < steps; step++ {
		var what string
		var eres, rres AccessResult
		var eerr, rerr error
		var en, rn int
		op := drv.Intn(14)
		if len(vmas) == 0 || (op == 0 && len(vmas) < 5) {
			op = 0
		} else if op == 0 {
			op = 1
		}
		k := drv.Intn(max(len(vmas), 1))
		switch op {
		case 0:
			pages, pi, init := 1+drv.Intn(48), pick(), states[drv.Intn(4)]
			base := uint64(drv.Intn(1 << 20))
			name := fmt.Sprintf("v%d", len(vmas))
			what = fmt.Sprintf("AddVMA(%s, %d pages, pool %d, %v)", name, pages, pi, init)
			var v *VMA
			v, eerr = as.AddVMA(name, uint64(len(vmas))<<32, pages, Read|Write, Anon, poolOf(ew, pi), base, init)
			var r *refVMA
			r, rerr = ref.addVMA(name, pages, Read|Write, poolOf(rw, pi), base, init)
			if v != nil && r != nil {
				vmas, refs = append(vmas, v), append(refs, r)
			}
		case 1, 2:
			// Split hot/cold backing, the shape mm-template attach uses,
			// or one arbitrary (often invalid) SetBacking.
			v, r := vmas[k], refs[k]
			first, count := span(v.Pages())
			pi, s := pick(), states[drv.Intn(4)]
			if op == 1 {
				pi, s = drv.Intn(2), RemoteDirect
			}
			what = fmt.Sprintf("SetBacking(%s, %d, %d, pool %d, %v)", v.Name, first, count, pi, s)
			eerr = as.SetBacking(v, first, count, poolOf(ew, pi), 7, s)
			rerr = ref.setBacking(r, first, count, poolOf(rw, pi), 7, s)
			if op == 1 && eerr == nil && first+count < v.Pages() {
				pi = 2 + drv.Intn(2)
				count = v.Pages() - first - count
				first = v.Pages() - count
				what += fmt.Sprintf("+cold(%d, %d, pool %d)", first, count, pi)
				eerr = as.SetBacking(v, first, count, poolOf(ew, pi), 9, RemoteLazy)
				rerr = ref.setBacking(r, first, count, poolOf(rw, pi), 9, RemoteLazy)
			}
		case 3, 4, 5:
			v, r := vmas[k], refs[k]
			read, write := drv.Intn(v.Pages()+1), drv.Intn(v.Pages()+1)
			if drv.Intn(20) == 0 {
				read = v.Pages() + 1
			}
			what = fmt.Sprintf("Access(%s, %d, %d)", v.Name, read, write)
			eres, eerr = as.Access(ew.rng, v, read, write)
			rres, rerr = ref.access(rw.rng, r, read, write)
		case 6:
			v, r := vmas[k], refs[k]
			page, write := drv.Intn(v.Pages()), drv.Intn(2) == 0
			what = fmt.Sprintf("Touch(%s, %d, %v)", v.Name, page, write)
			var lat time.Duration
			lat, eerr = as.Touch(ew.rng, v.Start+uint64(page)*mem.PageSize, write)
			eres = AccessResult{Latency: lat}
			rres, rerr = ref.accessVMA(rw.rng, r, page, 1, write)
			rres = AccessResult{Latency: rres.Latency}
		case 7:
			v, r := vmas[k], refs[k]
			first, count := span(v.Pages())
			what = fmt.Sprintf("MakeResident(%s, %d, %d)", v.Name, first, count)
			eerr = as.MakeResident(v, first, count)
			rerr = ref.makeResident(r, first, count)
		case 8, 9:
			v, r := vmas[k], refs[k]
			first, count := span(v.Pages())
			ready := ew.now + time.Duration(drv.Intn(100))*time.Microsecond
			what = fmt.Sprintf("MarkInFlight(%s, %d, %d, %v)", v.Name, first, count, ready)
			en, eerr = as.MarkInFlight(v, first, count, ready)
			rn, rerr = ref.markInFlight(r, first, count, ready)
		case 10:
			v, r := vmas[k], refs[k]
			first, count := span(v.Pages())
			pi := 4
			if drv.Intn(10) == 0 {
				pi = 2 // not byte-addressable: refused
			}
			what = fmt.Sprintf("PromoteRange(%s, %d, %d, pool %d)", v.Name, first, count, pi)
			en, eerr = as.PromoteRange(v, first, count, ew.pools[pi])
			rn, rerr = ref.promoteRange(r, first, count, rw.pools[pi])
		case 11:
			v, r := vmas[k], refs[k]
			pages := drv.Intn(16)
			what = fmt.Sprintf("Grow(%s, %d)", v.Name, pages)
			eerr = as.Grow(v, pages)
			rerr = ref.grow(r, pages)
		case 12:
			what = "MarkClean"
			as.MarkClean()
			ref.markClean()
		case 13:
			d := time.Duration(drv.Intn(60)) * time.Microsecond
			what = fmt.Sprintf("tick %v", d)
			ew.now += d
			rw.now += d
			if drv.Intn(8) == 0 {
				what += "+seal"
				ew.log.Seal()
				rw.log.Seal()
			}
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("step %d %s: %s", step, what, fmt.Sprintf(format, args...))
		}
		if errText(eerr) != errText(rerr) {
			return fail("error %q, reference %q", errText(eerr), errText(rerr))
		}
		if eres != rres || en != rn {
			return fail("result %+v n=%d, reference %+v n=%d", eres, en, rres, rn)
		}
		if as.Stats() != ref.stats || as.RSS() != ref.rss || ew.tracker.Used() != rw.tracker.Used() {
			return fail("stats %+v rss %d used %d, reference %+v rss %d used %d",
				as.Stats(), as.RSS(), ew.tracker.Used(), ref.stats, ref.rss, rw.tracker.Used())
		}
		if !slices.Equal(ew.log.Entries(), rw.log.Entries()) {
			return fail("working set %v, reference %v", ew.log.Entries(), rw.log.Entries())
		}
		for i, v := range vmas {
			r := refs[i]
			if err := checkRuns(v); err != nil {
				return fail("%s: %v", v.Name, err)
			}
			if v.Pages() != r.pages() || v.DirtyPages() != r.dirtyCount || as.DirtyBytes() != ref.dirtyBytes() {
				return fail("%s: pages %d dirty %d, reference %d %d", v.Name, v.Pages(), v.DirtyPages(), r.pages(), r.dirtyCount)
			}
			for s := Unmapped; s < numStates; s++ {
				if v.CountIn(s) != r.counts[s] {
					return fail("%s: CountIn(%v) = %d, reference %d", v.Name, s, v.CountIn(s), r.counts[s])
				}
			}
			for p := 0; p < v.Pages(); p++ {
				if v.PageState(p) != r.states[p] || ew.poolIndex(v.PoolAt(p)) != rw.poolIndex(r.poolAt(p)) {
					return fail("%s page %d: %v pool %d, reference %v pool %d", v.Name, p,
						v.PageState(p), ew.poolIndex(v.PoolAt(p)), r.states[p], rw.poolIndex(r.poolAt(p)))
				}
			}
			first, count := span(v.Pages())
			count = min(count, v.Pages()-first)
			s := states[drv.Intn(4)]
			want := 0
			for p := first; p < first+count; p++ {
				if r.states[p] == s {
					want++
				}
			}
			if got := v.CountInRange(s, first, count); got != want {
				return fail("%s: CountInRange(%v, %d, %d) = %d, reference %d", v.Name, s, first, count, got, want)
			}
			eb, rb := v.Backings(), r.segs
			if len(eb) != len(rb) {
				return fail("%s: %d backings, reference %d", v.Name, len(eb), len(rb))
			}
			for j := range eb {
				if eb[j].First != rb[j].First || eb[j].Pages != rb[j].Pages || eb[j].Base != rb[j].Base ||
					ew.poolIndex(eb[j].Pool) != rw.poolIndex(rb[j].Pool) {
					return fail("%s: backing %d = %+v, reference %+v", v.Name, j, eb[j], rb[j])
				}
			}
		}
	}
	return nil
}
