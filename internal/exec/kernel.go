package exec

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/value"
)

// AggInput is one aggregate to compute per group: its kind and the
// measure it reads. A nil Measure counts rows.
type AggInput struct {
	Kind    AggKind
	Measure Measure
}

// GroupInput is one group-by over a row range [0, NumRows).
type GroupInput struct {
	NumRows int
	// Keys are the grouping columns, dictionary-encoded. Each must have at
	// least NumRows rows.
	Keys []*CodedColumn
	// Aggs are the aggregates computed per group.
	Aggs []AggInput
	// Rows, when non-nil, is the row selection (see SelectRows): bit
	// i&63 of Rows[i>>6] is set when row i takes part. It must cover
	// NumRows rows; nil takes every row.
	Rows []uint64
}

// Group is one output group: its key tuple (decoded, in key order) and
// one finalised accumulator per aggregate.
type Group struct {
	Tuple  []value.Value
	States []*AggState
}

// maxDenseBits bounds the direct-indexed accumulator table: when the
// packed key fits this many bits each worker addresses groups with a
// single array index, no hashing at all. 2^16 slots of one int32 each
// is small enough to allocate per worker.
const maxDenseBits = 16

// minRowsPerWorker keeps the pool from fanning out over trivially small
// inputs, where goroutine startup would dominate.
const minRowsPerWorker = 2048

// cancelCheckRows is the cooperative-cancellation cadence: every scan
// worker re-checks its context (and charges the row budget) once per
// this many rows, bounding both cancellation latency and the per-row
// overhead of governance (one atomic load per batch when idle).
const cancelCheckRows = 4096

// wideEntryBytes approximates the heap cost of one wide-path hash map
// entry beyond its key bytes: map bucket share, the entry struct, the
// codes slice header and the states slice. Charged against the byte
// budget so a pathological high-cardinality wide group-by is stopped
// before it exhausts memory.
const wideEntryBytes = 96

// scanCtl coordinates cooperative cancellation and budget charging
// across the kernel's worker pool. The stop flag is the only state the
// hot path reads (one atomic load per cancelCheckRows rows); the first
// failure wins and every other worker drains at its next check.
type scanCtl struct {
	ctx    context.Context
	budget *govern.Budget
	stop   atomic.Bool
	mu     sync.Mutex
	err    error
}

func newScanCtl(ctx context.Context) *scanCtl {
	return &scanCtl{ctx: ctx, budget: govern.BudgetFrom(ctx)}
}

// fail records the first abort cause and stops every worker.
func (c *scanCtl) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.stop.Store(true)
}

// aborted returns the recorded abort cause, if any.
func (c *scanCtl) aborted() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// next gates one chunk of nRows: it reports false when the scan must
// stop (another worker failed, the context ended, or the row budget is
// exhausted by this chunk).
func (c *scanCtl) next(nRows int) bool {
	if c.stop.Load() {
		return false
	}
	if err := c.ctx.Err(); err != nil {
		c.fail(err)
		return false
	}
	if err := c.budget.AddRows(int64(nRows)); err != nil {
		c.fail(err)
		return false
	}
	return true
}

// cell charges one newly materialised group against the cell budget.
func (c *scanCtl) cell() bool {
	if c.budget == nil {
		return true
	}
	if err := c.budget.AddCells(1); err != nil {
		c.fail(err)
		return false
	}
	return true
}

// wideCell charges one wide-path group: a cell plus its estimated hash
// map bytes.
func (c *scanCtl) wideCell(keyBytes int) bool {
	if c.budget == nil {
		return true
	}
	if err := c.budget.AddCells(1); err != nil {
		c.fail(err)
		return false
	}
	if err := c.budget.AddBytes(int64(keyBytes + wideEntryBytes)); err != nil {
		c.fail(err)
		return false
	}
	return true
}

// checkEvery gates long single-threaded loops (merge, assembly) on the
// same cadence as the scan.
func (c *scanCtl) checkEvery(i int) bool {
	if i%cancelCheckRows != 0 {
		return true
	}
	return c.next(0)
}

// GroupBy groups the input rows by their key codes and computes the
// requested aggregates per group. Groups are returned sorted ascending by
// key tuple (value.Compare, lexicographic), which makes the result
// deterministic regardless of worker count or merge order.
//
// The scan is cooperatively cancellable: workers re-check ctx every
// cancelCheckRows rows and the call returns the context's error with no
// partial result. A budget attached to ctx (govern.WithBudget) is
// charged as the scan proceeds and aborts the call with an error
// matching govern.ErrBudgetExceeded when a ceiling is crossed. When ctx
// carries a trace span (obs.ContextWithSpan), the kernel phases
// (exec.scan, exec.merge, exec.sort) are recorded under it.
func GroupBy(ctx context.Context, in GroupInput) ([]Group, error) {
	return groupBy(ctx, in, 0)
}

// groupBy is GroupBy with the worker pool bounded by parallelism; 0
// sizes it by GOMAXPROCS.
func groupBy(ctx context.Context, in GroupInput, parallelism int) ([]Group, error) {
	for k, key := range in.Keys {
		if key.Len() < in.NumRows {
			return nil, fmt.Errorf("exec: key column %d has %d rows, input has %d", k, key.Len(), in.NumRows)
		}
	}
	if in.Rows != nil && len(in.Rows)<<6 < in.NumRows {
		return nil, fmt.Errorf("exec: row selection covers %d rows, input has %d", len(in.Rows)<<6, in.NumRows)
	}
	c := newScanCtl(ctx)
	if !c.next(0) { // already-cancelled contexts never start scanning
		return nil, abortErr(c)
	}
	metricRowsScanned.Add(uint64(in.NumRows))
	sp := obs.SpanFromContext(ctx)
	groups, err := groupVectorized(in, parallelism, c, sp)
	if err != nil {
		return nil, err
	}
	if !c.next(0) {
		return nil, abortErr(c)
	}
	sortSp := sp.Start("exec.sort")
	sort.Slice(groups, func(a, b int) bool {
		return CompareTuples(groups[a].Tuple, groups[b].Tuple) < 0
	})
	sortSp.Annotate("groups", len(groups))
	sortSp.End()
	metricGroups.Add(uint64(len(groups)))
	return groups, nil
}

// abortErr wraps the controller's recorded cause so callers can match
// context and budget errors with errors.Is while still seeing the
// kernel in the message.
func abortErr(c *scanCtl) error {
	err := c.aborted()
	if err == nil {
		// next() can only fail after recording a cause; this is a
		// defensive fallback.
		err = context.Canceled
	}
	return fmt.Errorf("exec: group-by aborted: %w", err)
}

func newStates(aggs []AggInput) []*AggState {
	states := make([]*AggState, len(aggs))
	for k, a := range aggs {
		states[k] = NewAggState(a.Kind)
	}
	return states
}

func observeRow(states []*AggState, aggs []AggInput, i int) {
	for k, a := range aggs {
		if a.Measure == nil {
			states[k].ObserveRow()
		} else {
			states[k].Observe(a.Measure.Value(i))
		}
	}
}

// keyLayout packs one code per key column into a uint64: column k
// occupies width[k] bits at shift[k]. Packable reports whether the whole
// tuple fits 64 bits; when it does not, the kernel falls back to a
// byte-string key over the raw codes.
type keyLayout struct {
	shift    []uint
	width    []uint
	total    uint
	packable bool
}

func layoutFor(keys []*CodedColumn) keyLayout {
	l := keyLayout{shift: make([]uint, len(keys)), width: make([]uint, len(keys)), packable: true}
	for k, key := range keys {
		w := uint(bits.Len(uint(key.Card() - 1)))
		if w == 0 {
			w = 1
		}
		l.shift[k] = l.total
		l.width[k] = w
		l.total += w
	}
	if l.total > 64 {
		l.packable = false
	}
	return l
}

// appendTuple decodes a packed key into dst using the per-key
// dictionaries, appending one value per key. Output assembly uses it to
// build every tuple inside one shared backing array.
func (l keyLayout) appendTuple(dst []value.Value, packed uint64, keyValues [][]value.Value) []value.Value {
	for k := range keyValues {
		code := (packed >> l.shift[k]) & (1<<l.width[k] - 1)
		dst = append(dst, keyValues[k][code])
	}
	return dst
}

func (l keyLayout) unpack(packed uint64, keys []*CodedColumn) []value.Value {
	tuple := make([]value.Value, len(keys))
	for k, key := range keys {
		code := (packed >> l.shift[k]) & (1<<l.width[k] - 1)
		tuple[k] = key.Values()[code]
	}
	return tuple
}

// workerCount sizes the pool: bounded by parallelism (or GOMAXPROCS when
// that is 0) and by the number of minimum-size row chunks available.
func workerCount(numRows, parallelism int) int {
	p := parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if byRows := numRows / minRowsPerWorker; byRows < p {
		p = byRows
	}
	if p < 1 {
		p = 1
	}
	return p
}

func groupVectorized(in GroupInput, parallelism int, c *scanCtl, sp *obs.Span) ([]Group, error) {
	layout := layoutFor(in.Keys)
	workers := workerCount(in.NumRows, parallelism)
	metricWorkers.Observe(float64(workers))
	switch {
	case layout.packable && layout.total <= maxDenseBits:
		invokeDense.Inc()
		return groupDense(in, layout, workers, c, sp)
	case layout.packable:
		invokeHashed.Inc()
		return groupHashed(in, layout, workers, c, sp)
	default:
		invokeWide.Inc()
		return groupWide(in, workers, c, sp)
	}
}

// scanSpan opens the exec.scan phase span shared by the vectorized
// paths, annotated with the fan-out.
func scanSpan(sp *obs.Span, rows, workers int) *obs.Span {
	scan := sp.Start("exec.scan")
	scan.Annotate("rows", rows)
	scan.Annotate("workers", workers)
	return scan
}

// partition splits [0, n) into one contiguous chunk per worker.
func partition(n, workers int) [][2]int {
	chunks := make([][2]int, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo > hi {
			lo = hi
		}
		chunks[w] = [2]int{lo, hi}
	}
	return chunks
}

// runWorkers executes fn(worker, lo, hi) on the pool. With one worker it
// runs inline, avoiding goroutine overhead for small inputs.
func runWorkers(n, workers int, fn func(w, lo, hi int)) {
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	chunks := partition(n, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, chunks[w][0], chunks[w][1])
		}(w)
	}
	wg.Wait()
}

// codeVectors returns the code vector of each key column, indexed by row.
func codeVectors(keys []*CodedColumn) [][]uint32 {
	codes := make([][]uint32, len(keys))
	for k, key := range keys {
		codes[k] = key.codes
	}
	return codes
}

// groupDense is the fast path for low-cardinality keys (the clinical
// norm): per-worker arenas addressed directly by the packed code — no
// hashing, no per-group heap allocation.
func groupDense(in GroupInput, layout keyLayout, workers int, c *scanCtl, sp *obs.Span) ([]Group, error) {
	size := 1 << layout.total
	plan, distWords := planAggs(in.Aggs, in.NumRows, size)
	arenas := make([]*denseArena, workers)
	kcodes := codeVectors(in.Keys)
	scan := scanSpan(sp, in.NumRows, workers)
	runWorkers(in.NumRows, workers, func(w, lo, hi int) {
		a := newDenseArena(size, plan, distWords)
		arenas[w] = a
		scanDense(in, kcodes, layout, a, c, lo, hi)
	})
	scan.End()
	if err := c.aborted(); err != nil {
		return nil, abortErr(c)
	}

	mergeStart := time.Now()
	merge := sp.Start("exec.merge")
	keyValues := make([][]value.Value, len(in.Keys))
	for k, key := range in.Keys {
		keyValues[k] = key.Values()
	}
	capGroups := 0
	for _, a := range arenas {
		capGroups += a.groups
	}
	tuples := make([]value.Value, 0, capGroups*len(in.Keys))
	ptrs := make([]*AggState, 0, capGroups*len(in.Aggs))
	out := make([]Group, 0, capGroups)
	for slot := 0; slot < size; slot++ {
		if !c.checkEvery(slot) {
			merge.End()
			return nil, abortErr(c)
		}
		var tgt *denseArena
		tg := -1
		for _, a := range arenas {
			gi := a.slots[slot]
			if gi == 0 {
				continue
			}
			if tgt == nil {
				tgt, tg = a, int(gi)-1
				continue
			}
			tgt.mergeGroup(tg, a, int(gi)-1)
		}
		if tgt == nil {
			continue
		}
		tgt.seal(tg)
		tupStart := len(tuples)
		tuples = layout.appendTuple(tuples, uint64(slot), keyValues)
		ptrStart := len(ptrs)
		base := tg * tgt.nAggs
		for k := 0; k < tgt.nAggs; k++ {
			ptrs = append(ptrs, &tgt.states[base+k])
		}
		out = append(out, Group{
			Tuple:  tuples[tupStart:len(tuples):len(tuples)],
			States: ptrs[ptrStart:len(ptrs):len(ptrs)],
		})
	}
	merge.Annotate("groups", len(out))
	merge.End()
	metricMergeSeconds.ObserveSince(mergeStart)
	return out, nil
}

// scanDense folds rows [lo, hi) into arena a, one packed-slot lookup per
// row, checking the scan controller once per cancelCheckRows block.
func scanDense(in GroupInput, kcodes [][]uint32, layout keyLayout, a *denseArena, c *scanCtl, lo, hi int) {
	for lo < hi {
		end := lo + cancelCheckRows
		if end > hi {
			end = hi
		}
		if !c.next(end - lo) {
			return
		}
		for i := lo; i < end; i++ {
			if !Selected(in.Rows, i) {
				continue
			}
			var slot uint64
			for k := range kcodes {
				slot |= uint64(kcodes[k][i]) << layout.shift[k]
			}
			g, ok := a.group(slot, c)
			if !ok {
				return
			}
			a.observe(g, i)
		}
		lo = end
	}
}

// groupHashed handles packed keys wider than the dense budget: per-worker
// hash maps keyed by the packed uint64, merged in worker order.
func groupHashed(in GroupInput, layout keyLayout, workers int, c *scanCtl, sp *obs.Span) ([]Group, error) {
	partials := make([]map[uint64][]*AggState, workers)
	kcodes := codeVectors(in.Keys)
	scan := scanSpan(sp, in.NumRows, workers)
	runWorkers(in.NumRows, workers, func(w, lo, hi int) {
		local := make(map[uint64][]*AggState)
		for lo < hi {
			end := lo + cancelCheckRows
			if end > hi {
				end = hi
			}
			if !c.next(end - lo) {
				return
			}
			for i := lo; i < end; i++ {
				if !Selected(in.Rows, i) {
					continue
				}
				var packed uint64
				for k := range kcodes {
					packed |= uint64(kcodes[k][i]) << layout.shift[k]
				}
				states, ok := local[packed]
				if !ok {
					if !c.cell() {
						return
					}
					states = newStates(in.Aggs)
					local[packed] = states
				}
				observeRow(states, in.Aggs, i)
			}
			lo = end
		}
		partials[w] = local
	})
	scan.End()
	if err := c.aborted(); err != nil {
		return nil, abortErr(c)
	}

	mergeStart := time.Now()
	merge := sp.Start("exec.merge")
	merged := partials[0]
	step := 0
	for w := 1; w < workers; w++ {
		for packed, states := range partials[w] {
			if !c.checkEvery(step) {
				merge.End()
				return nil, abortErr(c)
			}
			step++
			have, ok := merged[packed]
			if !ok {
				merged[packed] = states
				continue
			}
			for k := range have {
				have[k].Merge(states[k])
			}
		}
	}
	out := make([]Group, 0, len(merged))
	for packed, states := range merged {
		out = append(out, Group{Tuple: layout.unpack(packed, in.Keys), States: states})
	}
	merge.Annotate("groups", len(out))
	merge.End()
	metricMergeSeconds.ObserveSince(mergeStart)
	return out, nil
}

// groupWide handles key tuples whose packed form exceeds 64 bits: the key
// is the raw code bytes (still no per-value string formatting). Its hash
// map entries are the kernel's only
// unbounded-size accumulators, so new groups are charged against the byte
// budget as well as the cell budget.
func groupWide(in GroupInput, workers int, c *scanCtl, sp *obs.Span) ([]Group, error) {
	type entry struct {
		codes  []uint32
		states []*AggState
	}
	partials := make([]map[string]*entry, workers)
	kcodes := codeVectors(in.Keys)
	scan := scanSpan(sp, in.NumRows, workers)
	runWorkers(in.NumRows, workers, func(w, lo, hi int) {
		local := make(map[string]*entry)
		buf := make([]byte, 4*len(in.Keys))
		for lo < hi {
			end := lo + cancelCheckRows
			if end > hi {
				end = hi
			}
			if !c.next(end - lo) {
				return
			}
			for i := lo; i < end; i++ {
				if !Selected(in.Rows, i) {
					continue
				}
				for k := range kcodes {
					code := kcodes[k][i]
					buf[4*k] = byte(code)
					buf[4*k+1] = byte(code >> 8)
					buf[4*k+2] = byte(code >> 16)
					buf[4*k+3] = byte(code >> 24)
				}
				g, ok := local[string(buf)]
				if !ok {
					if !c.wideCell(len(buf)) {
						return
					}
					codes := make([]uint32, len(in.Keys))
					for k := range kcodes {
						codes[k] = kcodes[k][i]
					}
					g = &entry{codes: codes, states: newStates(in.Aggs)}
					local[string(buf)] = g
				}
				observeRow(g.states, in.Aggs, i)
			}
			lo = end
		}
		partials[w] = local
	})
	scan.End()
	if err := c.aborted(); err != nil {
		return nil, abortErr(c)
	}

	mergeStart := time.Now()
	merge := sp.Start("exec.merge")
	merged := partials[0]
	step := 0
	for w := 1; w < workers; w++ {
		for gk, g := range partials[w] {
			if !c.checkEvery(step) {
				merge.End()
				return nil, abortErr(c)
			}
			step++
			have, ok := merged[gk]
			if !ok {
				merged[gk] = g
				continue
			}
			for k := range have.states {
				have.states[k].Merge(g.states[k])
			}
		}
	}
	out := make([]Group, 0, len(merged))
	for _, g := range merged {
		tuple := make([]value.Value, len(in.Keys))
		for k, key := range in.Keys {
			tuple[k] = key.Values()[g.codes[k]]
		}
		out = append(out, Group{Tuple: tuple, States: g.states})
	}
	merge.Annotate("groups", len(out))
	merge.End()
	metricMergeSeconds.ObserveSince(mergeStart)
	return out, nil
}
