// Package pagetable is a software MMU: virtual memory areas, their PTE
// states kept as run-length extents, and the fault state machine TrEnv's
// mm-template relies on.
//
// A page is in one of four states:
//
//   - Unmapped: no backing yet (demand-zero anonymous memory). Any access
//     takes a minor fault and allocates a local page.
//   - RemoteDirect: a valid, write-protected PTE mapping byte-addressable
//     pool memory (CXL). Reads need no fault and cost only the pool's
//     direct-access latency; writes take a copy-on-write fault.
//   - RemoteLazy: an invalid PTE carrying a remote offset (RDMA/NAS). Any
//     access takes a major fault that fetches the 4 KB page into local
//     memory.
//   - Local: resident in node DRAM; accesses are free (folded into the
//     workload's base execution time).
//
// A VMA's remote backing is described by segments, so a single region can
// mix tiers — the paper's multi-layer placement of hot pages on CXL and
// cold pages on RDMA/NAS. This reproduces exactly the event counts and
// costs the evaluation measures: CXL's zero-software-overhead reads,
// RDMA's per-page major faults, and CoW isolation for written pages.
//
// A VMA stores its pages as a sorted list of runs: maximal stretches of
// pages sharing state, backing pool, dirty bit and prefetch deadline.
// Working sets are long contiguous stretches (REAP), so every operation
// splits runs at its range ends, updates each run in one step and merges
// equal neighbours: page-table work is O(runs), not O(pages), and
// attaching a template costs its segment count, not its image size.
package pagetable

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/mem"
)

// State is the backing state of one page.
type State uint8

const (
	// Unmapped pages have no backing store yet (demand zero).
	Unmapped State = iota
	// RemoteDirect pages map byte-addressable pool memory read-only.
	RemoteDirect
	// RemoteLazy pages carry a remote offset behind an invalid PTE.
	RemoteLazy
	// Local pages are resident in node DRAM.
	Local
	numStates
)

// String names the state.
func (s State) String() string {
	switch s {
	case Unmapped:
		return "unmapped"
	case RemoteDirect:
		return "remote-direct"
	case RemoteLazy:
		return "remote-lazy"
	case Local:
		return "local"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Prot is a page protection bitmask.
type Prot uint8

// Protection bits.
const (
	Read Prot = 1 << iota
	Write
	Exec
)

// MapKind distinguishes anonymous from file-backed mappings. The paper's
// custom driver exists precisely because stock DAX cannot back anonymous
// or regular-file mappings with CXL memory; here both kinds may carry
// remote backing.
type MapKind uint8

const (
	// Anon is an anonymous mapping (heap, stack).
	Anon MapKind = iota
	// File is a file-backed mapping (.text, .data, mapped libraries).
	File
)

// Backing maps pages [First, First+Pages) of a VMA onto a pool at byte
// offset Base (page i of the run lives at Base + i*PageSize).
type Backing struct {
	First int
	Pages int
	Pool  *mem.Pool
	Base  uint64
}

// VMA is one virtual memory area with uniform protection.
type VMA struct {
	Name  string
	Start uint64
	Prot  Prot
	Kind  MapKind

	segs       []Backing // sorted by First, non-overlapping
	runs       []run     // sorted, contiguous, cover [0, Pages()), no equal neighbours
	counts     [numStates]int
	dirtyCount int
}

// run is a maximal stretch of pages, ending before page end, that share
// every per-page attribute.
type run struct {
	end   int
	pool  *mem.Pool // the PromoteRange cache, else the segment's pool, else nil
	state State
	dirty bool // written since the last MarkClean: an incremental dump's delta
	// flying marks pages a prefetch batch landing at ready is delivering
	// (see MarkInFlight); ready is zero when not flying.
	flying bool
	ready  time.Duration
}

// same reports whether r and o differ only in their end page.
func (r run) same(o run) bool {
	r.end = o.end
	return r == o
}

// initRuns is a new VMA's run capacity: a hot/cold split plus written prefix.
const initRuns = 8

// find returns the index of the run holding page i (len(runs) past the end).
func (v *VMA) find(i int) int {
	return sort.Search(len(v.runs), func(k int) bool { return v.runs[k].end > i })
}

// startOf returns the first page of run k.
func (v *VMA) startOf(k int) int {
	if k == 0 {
		return 0
	}
	return v.runs[k-1].end
}

// split makes page i begin a run and returns that run's index.
func (v *VMA) split(i int) int {
	k := v.find(i)
	if k < len(v.runs) && v.startOf(k) != i {
		v.runs = slices.Insert(v.runs, k, v.runs[k])
		v.runs[k].end = i
		k++
	}
	return k
}

// update splits runs at first and end, calls fn on each run of [first,
// end) in page order with the run's first page and page count, then
// merges equal neighbours.
func (v *VMA) update(first, end int, fn func(r *run, start, n int)) {
	lo := v.split(first)
	hi := v.split(end)
	start := first
	for k := lo; k < hi; k++ {
		fn(&v.runs[k], start, v.runs[k].end-start)
		start = v.runs[k].end
	}
	v.merge(lo, hi)
}

// merge coalesces equal neighbours among runs [lo-1, hi], the window an
// update of runs [lo, hi) can disturb.
func (v *VMA) merge(lo, hi int) {
	lo, hi = max(lo-1, 0), min(hi+1, len(v.runs))
	w := lo
	for k := lo + 1; k < hi; k++ {
		if v.runs[k].same(v.runs[w]) {
			v.runs[w].end = v.runs[k].end
		} else {
			w++
			v.runs[w] = v.runs[k]
		}
	}
	v.runs = append(v.runs[:w+1], v.runs[hi:]...)
}

// setState moves the n pages of r to state s.
func (v *VMA) setState(r *run, s State, n int) {
	v.counts[r.state] -= n
	r.state = s
	v.counts[s] += n
}

// DirtyPages returns pages written since the last MarkClean.
func (v *VMA) DirtyPages() int { return v.dirtyCount }

// Pages returns the VMA's page count.
func (v *VMA) Pages() int { return v.runs[len(v.runs)-1].end }

// Bytes returns the VMA's size in bytes.
func (v *VMA) Bytes() int64 { return int64(v.Pages()) * mem.PageSize }

// End returns the first address past the VMA.
func (v *VMA) End() uint64 { return v.Start + uint64(v.Bytes()) }

// CountIn reports how many pages are in state s.
func (v *VMA) CountIn(s State) int { return v.counts[s] }

// CountInRange reports how many of pages [first, first+count) are in state s.
func (v *VMA) CountInRange(s State, first, count int) int {
	var n int
	end := first + count
	for k := v.find(first); k < len(v.runs) && v.startOf(k) < end; k++ {
		if v.runs[k].state == s {
			n += min(v.runs[k].end, end) - max(v.startOf(k), first)
		}
	}
	return n
}

// PageState returns the state of page index i.
func (v *VMA) PageState(i int) State { return v.runs[v.find(i)].state }

// Backings returns the VMA's remote backing segments.
func (v *VMA) Backings() []Backing { return v.segs }

// PoolAt returns the pool backing page i, or nil. A promoted page
// (PromoteRange) reports the promotion cache it was redirected to.
func (v *VMA) PoolAt(i int) *mem.Pool { return v.runs[v.find(i)].pool }

// checkBacking rejects a backing that overlaps an existing segment.
func (v *VMA) checkBacking(b Backing) error {
	for _, s := range v.segs {
		if b.First < s.First+s.Pages && s.First < b.First+b.Pages {
			return fmt.Errorf("pagetable: VMA %q: backing [%d,%d) overlaps existing [%d,%d)",
				v.Name, b.First, b.First+b.Pages, s.First, s.First+s.Pages)
		}
	}
	return nil
}

// Stats aggregates fault and transfer activity for an address space.
type Stats struct {
	MinorFaults    int64 // demand-zero + CoW trap entries
	MajorFaults    int64 // faults requiring a remote fetch
	CowPages       int64 // pages copied due to a write to protected memory
	FetchedPages   int64 // pages pulled from RDMA/NAS pools
	DirectAccess   int64 // CXL pages used via direct loads (no fault)
	LocalAllocated int64 // bytes of node DRAM allocated
	Retries        int64 // fetch attempts retried after injected faults
	FetchErrors    int64 // accesses failed by an unrecoverable fetch error

	PrefetchedPages int64 // pages delivered by prefetch batches (MarkInFlight)
	PrefetchHits    int64 // accessed pages a prefetch batch had covered
	PrefetchWaitNs  int64 // ns spent waiting on in-flight prefetch batches
}

// AccessResult describes one aggregated access batch.
type AccessResult struct {
	MinorFaults  int
	MajorFaults  int
	CowPages     int
	FetchedPages int
	DirectPages  int
	Latency      time.Duration
	// FetchLat is the share of Latency spent pulling pages from remote
	// pools (fault overhead + contended transfer), and FetchPool names
	// the pool kind that served the most fetched pages — what tail
	// attribution needs to blame remote memory specifically.
	FetchLat  time.Duration
	FetchPool string
	// Retries counts fetch attempts beyond the first (injected-fault
	// recovery); FaultTrace is the trace ID of the fault that forced
	// them ("" = clean), so exec spans can link back to the cause.
	Retries    int
	FaultTrace string
	// PrefetchHits counts accessed pages that a prefetch batch had
	// already delivered or was in flight for — demand fetches avoided.
	// PrefetchWait is the time spent parked on in-flight batches.
	PrefetchHits int
	PrefetchWait time.Duration
}

// AddressSpace is a process's memory map.
type AddressSpace struct {
	vmas  []*VMA // sorted by Start
	local *mem.Tracker
	lat   mem.LatencyModel
	stats Stats
	sink  *Stats // optional shared aggregate mirroring every stats update
	rss   int64  // bytes of local DRAM held

	// clock supplies virtual time for in-flight prefetch waits (nil
	// when no prefetcher is attached); wslog records first-run fault
	// order for working-set replay.
	clock func() time.Duration
	wslog *WorkingSetLog
}

// NewAddressSpace creates an empty address space charging local pages to
// tracker.
func NewAddressSpace(local *mem.Tracker, lat mem.LatencyModel) *AddressSpace {
	return &AddressSpace{local: local, lat: lat}
}

// Stats returns accumulated fault statistics.
func (as *AddressSpace) Stats() Stats { return as.stats }

// SetStatsSink mirrors every subsequent stats update into s in addition
// to the per-space accounting. One sink is typically shared by every
// address space on a node, giving node-level fault/traffic counters for
// the metrics registry. Pass nil to detach.
func (as *AddressSpace) SetStatsSink(s *Stats) { as.sink = s }

// RSS returns the bytes of node DRAM currently held.
func (as *AddressSpace) RSS() int64 { return as.rss }

// RemoteResidentBytes returns bytes still backed by remote pools
// (RemoteDirect + RemoteLazy pages).
func (as *AddressSpace) RemoteResidentBytes() int64 {
	var pages int
	for _, v := range as.vmas {
		pages += v.counts[RemoteDirect] + v.counts[RemoteLazy]
	}
	return int64(pages) * mem.PageSize
}

// VMAs returns the address space's areas in address order.
func (as *AddressSpace) VMAs() []*VMA { return as.vmas }

// Region returns the VMA with the given name, or nil.
func (as *AddressSpace) Region(name string) *VMA {
	for _, v := range as.vmas {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// ErrOverlap reports an attempted overlapping mapping.
type ErrOverlap struct{ Name, Existing string }

func (e *ErrOverlap) Error() string {
	return fmt.Sprintf("pagetable: mapping %q overlaps %q", e.Name, e.Existing)
}

// AddVMA maps a new area. Every page starts in initState; when pool is
// non-nil it backs the whole VMA starting at baseOffset. Overlapping an
// existing VMA is an error.
func (as *AddressSpace) AddVMA(name string, start uint64, pages int, prot Prot, kind MapKind, pool *mem.Pool, baseOffset uint64, initState State) (*VMA, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("pagetable: VMA %q has %d pages", name, pages)
	}
	if (initState == RemoteDirect || initState == RemoteLazy) && pool == nil {
		return nil, fmt.Errorf("pagetable: VMA %q: remote state without a pool", name)
	}
	if initState == RemoteDirect && !pool.Kind().ByteAddressable() {
		return nil, fmt.Errorf("pagetable: VMA %q: pool %s is not byte-addressable", name, pool.Kind())
	}
	end := start + uint64(pages)*mem.PageSize
	for _, v := range as.vmas {
		if start < v.End() && v.Start < end {
			return nil, &ErrOverlap{Name: name, Existing: v.Name}
		}
	}
	if initState == Local {
		if err := as.allocLocal(int64(pages) * mem.PageSize); err != nil {
			return nil, err
		}
	}
	v := &VMA{Name: name, Start: start, Prot: prot, Kind: kind, runs: make([]run, 1, initRuns)}
	v.runs[0] = run{end: pages, pool: pool, state: initState}
	v.counts[initState] = pages
	if pool != nil {
		v.segs = []Backing{{First: 0, Pages: pages, Pool: pool, Base: baseOffset}}
	}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	return v, nil
}

// SetBacking installs pool backing for pages [first, first+count) of v and
// puts them in state s. It is how mm-template preconfigures PTEs:
// RemoteDirect for byte-addressable pools (valid, write-protected entries)
// and RemoteLazy otherwise (invalid entries holding the remote address).
// The range must not already have a backing segment nor a local page.
// On error nothing changes.
func (as *AddressSpace) SetBacking(v *VMA, first, count int, pool *mem.Pool, base uint64, s State) error {
	end := first + count
	if first < 0 || count <= 0 || end > v.Pages() {
		return fmt.Errorf("pagetable: SetBacking [%d,%d) outside VMA %q", first, end, v.Name)
	}
	switch s {
	case RemoteDirect:
		if pool == nil || !pool.Kind().ByteAddressable() {
			return fmt.Errorf("pagetable: VMA %q: RemoteDirect requires a byte-addressable pool", v.Name)
		}
	case RemoteLazy:
		if pool == nil {
			return fmt.Errorf("pagetable: VMA %q: RemoteLazy requires a pool", v.Name)
		}
	}
	b := Backing{First: first, Pages: count, Pool: pool, Base: base}
	if pool != nil {
		if err := v.checkBacking(b); err != nil {
			return err
		}
	}
	for k := v.find(first); v.startOf(k) < end; k++ {
		if v.runs[k].state == Local {
			return fmt.Errorf("pagetable: VMA %q page %d already local", v.Name, max(v.startOf(k), first))
		}
	}
	if s == Local {
		if err := as.allocLocal(int64(count) * mem.PageSize); err != nil {
			return err
		}
	}
	if pool != nil {
		k := sort.Search(len(v.segs), func(i int) bool { return v.segs[i].First > first })
		v.segs = slices.Insert(v.segs, k, b)
	}
	v.update(first, end, func(r *run, _, n int) {
		v.setState(r, s, n)
		if pool != nil {
			r.pool = pool
		}
	})
	return nil
}

func (as *AddressSpace) allocLocal(bytes int64) error {
	if err := as.local.Alloc(bytes); err != nil {
		return err
	}
	as.rss += bytes
	as.stats.LocalAllocated += bytes
	if as.sink != nil {
		as.sink.LocalAllocated += bytes
	}
	return nil
}

// Find returns the VMA containing addr, or nil.
func (as *AddressSpace) Find(addr uint64) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End() > addr })
	if i < len(as.vmas) && as.vmas[i].Start <= addr {
		return as.vmas[i]
	}
	return nil
}

// ErrProt reports an access violating a VMA's protection.
type ErrProt struct {
	VMA   string
	Write bool
}

func (e *ErrProt) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("pagetable: %s access violates protection of %q", op, e.VMA)
}

// Touch accesses the single page containing addr. It returns the latency
// the access incurs; the caller advances simulated time. rng samples
// contention effects for remote fetches.
func (as *AddressSpace) Touch(rng *rand.Rand, addr uint64, write bool) (time.Duration, error) {
	v := as.Find(addr)
	if v == nil {
		return 0, fmt.Errorf("pagetable: fault at unmapped address %#x", addr)
	}
	res, err := as.accessVMA(rng, v, int((addr-v.Start)/mem.PageSize), 1, write)
	return res.Latency, err
}

// Access performs an aggregated batch over the first readPages (read) and
// writePages (written) pages of region v, the model's unit of workload
// memory activity. Written pages are a prefix, matching the observation
// that hot writable state clusters at region starts; read pages cover a
// prefix too, so writes ⊆ reads when writePages <= readPages.
// The returned latency covers faults, fetches (one contended batch per
// pool), CoW copies, and CXL direct-access overheads.
func (as *AddressSpace) Access(rng *rand.Rand, v *VMA, readPages, writePages int) (AccessResult, error) {
	var total AccessResult
	if writePages > 0 {
		res, err := as.accessVMA(rng, v, 0, writePages, true)
		// Fold the partial result in even on error: a failed access still
		// spent its retries, and the caller records them on the span.
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

func addResults(a, b AccessResult) AccessResult {
	a.MinorFaults += b.MinorFaults
	a.MajorFaults += b.MajorFaults
	a.CowPages += b.CowPages
	a.FetchedPages += b.FetchedPages
	a.DirectPages += b.DirectPages
	a.Latency += b.Latency
	a.FetchLat += b.FetchLat
	if a.FetchPool == "" {
		a.FetchPool = b.FetchPool
	}
	a.Retries += b.Retries
	if a.FaultTrace == "" {
		a.FaultTrace = b.FaultTrace
	}
	a.PrefetchHits += b.PrefetchHits
	a.PrefetchWait += b.PrefetchWait
	return a
}

// poolTally accumulates per-pool page counts without heap allocation:
// a VMA's pages rarely span more than a few pools, so the common case
// fits the inline array and lives on accessVMA's stack. Pools are kept
// in first-seen (page-order) position; overflow beyond the inline
// capacity spills to a map, drained via the same deterministic sort the
// fetch path applies before any rng draw.
type poolTally struct {
	pools    [4]*mem.Pool
	counts   [4]int
	len      int
	overflow map[*mem.Pool]int
}

func (t *poolTally) add(p *mem.Pool, n int) {
	for i := 0; i < t.len; i++ {
		if t.pools[i] == p {
			t.counts[i] += n
			return
		}
	}
	if t.len < len(t.pools) {
		t.pools[t.len] = p
		t.counts[t.len] = n
		t.len++
		return
	}
	if t.overflow == nil {
		t.overflow = make(map[*mem.Pool]int)
	}
	t.overflow[p] += n
}

// each visits every (pool, count) pair in inline-then-overflow order.
// Callers that draw randomness per pool must sort first (see accessVMA).
func (t *poolTally) each(fn func(p *mem.Pool, n int)) {
	for i := 0; i < t.len; i++ {
		fn(t.pools[i], t.counts[i])
	}
	for p, n := range t.overflow {
		fn(p, n)
	}
}

// accessVMA touches pages [first, first+count) of v.
func (as *AddressSpace) accessVMA(rng *rand.Rand, v *VMA, first, count int, write bool) (AccessResult, error) {
	var res AccessResult
	if count <= 0 {
		return res, nil
	}
	if first < 0 || first+count > v.Pages() {
		return res, fmt.Errorf("pagetable: access [%d,%d) outside VMA %q (%d pages)", first, first+count, v.Name, v.Pages())
	}
	if (write && v.Prot&Write == 0) || (!write && v.Prot&Read == 0) {
		return res, &ErrProt{VMA: v.Name, Write: write}
	}
	var toZero int
	var inflightReady time.Duration
	var fetch, cow, direct poolTally // per-pool batches, stack-allocated
	// Working-set recording: the first run's fetches are logged as
	// contiguous (pool, run) stretches in fault order, the replay unit
	// of the prefetcher's batched fetches.
	record := as.wslog != nil && as.wslog.active()
	v.update(first, first+count, func(r *run, start, n int) {
		if write && !r.dirty {
			r.dirty = true
			v.dirtyCount += n
		}
		switch r.state {
		case Local:
			// In-flight prefetch hits: pages whose batch is still on the
			// wire park the access until the latest such batch lands.
			if r.flying {
				res.PrefetchHits += n
				inflightReady = max(inflightReady, r.ready)
				r.flying, r.ready = false, 0
			}
		case Unmapped:
			toZero += n
			v.setState(r, Local, n)
		case RemoteDirect:
			if write {
				cow.add(r.pool, n)
				v.setState(r, Local, n)
			} else {
				direct.add(r.pool, n)
			}
		case RemoteLazy:
			fetch.add(r.pool, n)
			if record {
				as.wslog.record(v.Name, start, n, r.pool.Kind().String())
			}
			v.setState(r, Local, n)
		}
	})
	var lat time.Duration
	if res.PrefetchHits > 0 {
		// A demand fault on an in-flight page takes a minor fault (the
		// PTE is being populated by the batch) and waits for the batch
		// deadline instead of issuing its own fetch; overlapping waits
		// collapse to the latest deadline.
		res.MinorFaults += res.PrefetchHits
		lat += time.Duration(res.PrefetchHits) * as.lat.MinorFaultOverhead
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
	var cowErr error
	cow.each(func(pool *mem.Pool, n int) {
		if cowErr != nil {
			return
		}
		res.MinorFaults += n
		res.CowPages += n
		lat += time.Duration(n) * as.lat.MinorFaultOverhead
		lat += pool.DirectAccessCost(n) // source read over CXL
		lat += time.Duration(n) * as.lat.CowPageCopy
		cowErr = as.allocLocal(int64(n) * mem.PageSize)
	})
	if cowErr != nil {
		return res, cowErr
	}
	// Iterate fetch pools in a fixed order: fault verdicts and retry
	// backoff draw from rng per pool, so accumulation order must not
	// leak into the simulation's random stream.
	type poolPages struct {
		pool *mem.Pool
		n    int
	}
	var inline [len(fetch.pools)]poolPages // no heap allocation for an inline tally
	fetchPools := inline[:0]
	fetch.each(func(p *mem.Pool, n int) { fetchPools = append(fetchPools, poolPages{p, n}) })
	slices.SortStableFunc(fetchPools, func(a, b poolPages) int {
		return cmp.Compare(a.pool.Kind().String(), b.pool.Kind().String())
	})
	maxFetch := 0
	for _, fp := range fetchPools {
		pool, n := fp.pool, fp.n
		flat := time.Duration(n) * as.lat.FaultOverhead
		// Contention is sampled from the pool's current outstanding load;
		// callers that sleep through this latency are expected to hold
		// BeginFetch/EndFetch on the pool for the sleep's duration so that
		// concurrent sessions see each other.
		d, out, err := pool.Fetch(rng, n)
		res.Retries += out.Retries
		if res.FaultTrace == "" {
			res.FaultTrace = out.FaultTrace
		}
		if err != nil {
			as.stats.FetchErrors++
			as.stats.Retries += int64(out.Retries)
			if as.sink != nil {
				as.sink.FetchErrors++
				as.sink.Retries += int64(out.Retries)
			}
			return res, fmt.Errorf("pagetable: fetch %d pages of %q from pool %s: %w", n, v.Name, pool.Kind(), err)
		}
		res.MajorFaults += n
		res.FetchedPages += n
		flat += d
		lat += flat
		res.FetchLat += flat
		kind := pool.Kind().String()
		if n > maxFetch || (n == maxFetch && kind < res.FetchPool) {
			maxFetch = n
			res.FetchPool = kind
		}
		if err := as.allocLocal(int64(n) * mem.PageSize); err != nil {
			return res, err
		}
	}
	direct.each(func(pool *mem.Pool, n int) {
		res.DirectPages += n
		lat += pool.DirectAccessCost(n)
	})
	res.Latency = lat
	as.stats.addAccess(res)
	if as.sink != nil {
		as.sink.addAccess(res)
	}
	return res, nil
}

func (s *Stats) addAccess(res AccessResult) {
	s.MinorFaults += int64(res.MinorFaults)
	s.MajorFaults += int64(res.MajorFaults)
	s.CowPages += int64(res.CowPages)
	s.FetchedPages += int64(res.FetchedPages)
	s.DirectAccess += int64(res.DirectPages)
	s.Retries += int64(res.Retries)
	s.PrefetchHits += int64(res.PrefetchHits)
	s.PrefetchWaitNs += int64(res.PrefetchWait)
}

// Grow extends v by pages of demand-zero memory (e.g. heap growth via
// brk). Grown pages default to local allocation on first touch — never to
// adjacent pool memory — reproducing the paper's Figure 9(b) safety
// property.
func (as *AddressSpace) Grow(v *VMA, pages int) error {
	if pages <= 0 {
		return fmt.Errorf("pagetable: grow by %d pages", pages)
	}
	end := v.End() + uint64(pages)*mem.PageSize
	for _, o := range as.vmas {
		if o != v && v.End() < o.End() && o.Start < end {
			return &ErrOverlap{Name: v.Name + "+growth", Existing: o.Name}
		}
	}
	v.runs = append(v.runs, run{end: v.Pages() + pages})
	v.merge(len(v.runs)-1, len(v.runs))
	v.counts[Unmapped] += pages
	return nil
}

// DirtyBytes sums pages written since the last MarkClean across VMAs.
func (as *AddressSpace) DirtyBytes() int64 {
	var pages int
	for _, v := range as.vmas {
		pages += v.dirtyCount
	}
	return int64(pages) * mem.PageSize
}

// MarkClean resets dirty tracking — called after a (pre-)dump so the
// next incremental checkpoint copies only the new delta.
func (as *AddressSpace) MarkClean() {
	for _, v := range as.vmas {
		for k := range v.runs {
			v.runs[k].dirty = false
		}
		v.merge(0, len(v.runs))
		v.dirtyCount = 0
	}
}

// MakeResident forces pages [first, first+count) of v into Local state,
// allocating node DRAM, without charging fault costs or pool fetches. It
// models bulk restore copies whose cost the caller accounts analytically
// (e.g. REAP's eager working-set copy from a tmpfs snapshot file).
func (as *AddressSpace) MakeResident(v *VMA, first, count int) error {
	if first < 0 || count <= 0 || first+count > v.Pages() {
		return fmt.Errorf("pagetable: MakeResident [%d,%d) outside VMA %q", first, first+count, v.Name)
	}
	var toAlloc int
	v.update(first, first+count, func(r *run, _, n int) {
		if r.state != Local {
			toAlloc += n
			v.setState(r, Local, n)
		}
	})
	if toAlloc == 0 {
		return nil
	}
	return as.allocLocal(int64(toAlloc) * mem.PageSize)
}

// Prefetch forces pages [first, first+count) of v resident, as REAP-style
// working-set prefetch does: remote pages are fetched in one batch,
// unmapped pages are zero-filled. It returns the latency of the batch.
func (as *AddressSpace) Prefetch(rng *rand.Rand, v *VMA, first, count int) (time.Duration, error) {
	res, err := as.accessVMA(rng, v, first, count, false)
	return res.Latency, err // zero on error: Latency is set only on success
}

// ReleaseAll returns every local page to the tracker and drops all
// mappings. The address space must not be used afterwards.
func (as *AddressSpace) ReleaseAll() {
	if as.rss > 0 {
		as.local.Free(as.rss)
		as.rss = 0
	}
	as.vmas = nil
}

// TotalPages returns the mapped page count across all VMAs.
func (as *AddressSpace) TotalPages() int {
	var n int
	for _, v := range as.vmas {
		n += v.Pages()
	}
	return n
}
