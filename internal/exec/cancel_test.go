package exec

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/value"
)

// cancelInputs builds one input per kernel path (dense, hashed, wide),
// each large enough to span many cancelCheckRows batches.
func cancelInputs(rows int) map[string]GroupInput {
	rng := rand.New(rand.NewSource(7))
	dense := buildInput(rows)
	hashed := GroupInput{
		NumRows: rows,
		Keys: []*CodedColumn{
			highCardColumn(rows, 500, rng),
			highCardColumn(rows, 400, rng),
			highCardColumn(rows, 300, rng),
		},
		Aggs: []AggInput{{Kind: CountAgg}, {Kind: SumAgg, Measure: constMeasure{rows}}},
	}
	wideKeys := make([]*CodedColumn, 6)
	for k := range wideKeys {
		wideKeys[k] = highCardColumn(rows, 20000, rng)
	}
	wide := GroupInput{
		NumRows: rows,
		Keys:    wideKeys,
		Aggs:    []AggInput{{Kind: CountAgg}},
	}
	return map[string]GroupInput{"dense": dense, "hashed": hashed, "wide": wide}
}

// constMeasure yields value.Float(1) for every row without allocating a
// slice of the input size.
type constMeasure struct{ n int }

func (constMeasure) Value(int) value.Value { return value.Float(1) }

// slowMeasure yields value.Float(1), sleeping on the first row of every
// cancelCheckRows batch.
type slowMeasure struct{}

func (slowMeasure) Value(i int) value.Value {
	if i%cancelCheckRows == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	return value.Float(1)
}

func TestPreCancelledContextNeverScans(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, in := range cancelInputs(10000) {
		groups, err := GroupBy(ctx, in)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if groups != nil {
			t.Errorf("%s: partial result escaped a cancelled call", name)
		}
	}
}

func TestDeadlineCancelsMidScan(t *testing.T) {
	in := buildInput(200000)
	// A measure that sleeps makes each batch slow enough for the deadline
	// to land inside the scan, not before or after it.
	in.Aggs = append(in.Aggs, AggInput{Kind: SumAgg, Measure: slowMeasure{}})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	groups, err := groupBy(ctx, in, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if groups != nil {
		t.Fatal("partial result escaped a deadline-exceeded call")
	}
}

// TestCancelStressAllPaths hammers every kernel path with contexts that
// are cancelled at random points mid-scan, from a racing goroutine, and
// asserts that (a) no partial result ever escapes, (b) an uncancelled
// re-run over the same shared dictionaries still matches the scalar
// reference — i.e. cancellation neither corrupts the coded columns nor
// leaks state between runs. Run under -race this also proves the
// worker/canceller interleavings are clean.
func TestCancelStressAllPaths(t *testing.T) {
	const rows = 60000
	inputs := cancelInputs(rows)
	for name, in := range inputs {
		in := in
		t.Run(name, func(t *testing.T) {
			want, err := oracleGroupBy(in)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				ctx, cancel := context.WithCancel(context.Background())
				delay := time.Duration(trial%5) * 100 * time.Microsecond
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					time.Sleep(delay)
					cancel()
				}()
				groups, err := groupBy(ctx, in, 4)
				wg.Wait()
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("trial %d: unexpected error %v", trial, err)
					}
					if groups != nil {
						t.Fatalf("trial %d: partial result escaped", trial)
					}
				} else {
					// The scan won the race; the result must be complete
					// and correct despite the concurrent cancel.
					sameGroups(t, groups, want)
				}
				cancel()
			}
			// Dictionaries are untouched by any number of aborted scans:
			// a clean run still matches the scalar reference.
			got, err := groupBy(context.Background(), in, 4)
			if err != nil {
				t.Fatal(err)
			}
			sameGroups(t, got, want)
		})
	}
}

func TestRowBudgetAbortsScan(t *testing.T) {
	for name, in := range cancelInputs(50000) {
		b := govern.NewBudget(10000, 0, 0)
		ctx := govern.WithBudget(context.Background(), b)
		groups, err := groupBy(ctx, in, 4)
		if !errors.Is(err, govern.ErrBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", name, err)
		}
		if groups != nil {
			t.Errorf("%s: partial result escaped a budget abort", name)
		}
		var be *govern.BudgetError
		if !errors.As(err, &be) || be.Dim != "rows" {
			t.Errorf("%s: budget error = %v, want rows dimension", name, err)
		}
	}
}

func TestCellBudgetAbortsHighCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := 30000
	in := GroupInput{
		NumRows: rows,
		Keys: []*CodedColumn{
			highCardColumn(rows, 500, rng),
			highCardColumn(rows, 400, rng),
			highCardColumn(rows, 300, rng),
		},
		Aggs: []AggInput{{Kind: CountAgg}},
	}
	b := govern.NewBudget(0, 100, 0)
	ctx := govern.WithBudget(context.Background(), b)
	if _, err := groupBy(ctx, in, 4); !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestByteBudgetAbortsWidePath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows := 30000
	keys := make([]*CodedColumn, 6)
	for k := range keys {
		keys[k] = highCardColumn(rows, 20000, rng)
	}
	in := GroupInput{NumRows: rows, Keys: keys, Aggs: []AggInput{{Kind: CountAgg}}}
	if l := layoutFor(keys); l.packable {
		t.Fatalf("layout %v does not exercise the wide path", l)
	}
	b := govern.NewBudget(0, 0, 64<<10)
	ctx := govern.WithBudget(context.Background(), b)
	groups, err := groupBy(ctx, in, 4)
	var be *govern.BudgetError
	if !errors.As(err, &be) || be.Dim != "bytes" {
		t.Fatalf("err = %v, want bytes BudgetError", err)
	}
	if groups != nil {
		t.Fatal("partial result escaped a byte-budget abort")
	}
}

func TestBudgetWithinLimitsSucceeds(t *testing.T) {
	in := buildInput(10000)
	b := govern.NewBudget(1<<20, 1<<20, 1<<30)
	ctx := govern.WithBudget(context.Background(), b)
	got, err := groupBy(ctx, in, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleGroupBy(in)
	if err != nil {
		t.Fatal(err)
	}
	sameGroups(t, got, want)
	rows, _, _ := b.Used()
	if rows != 10000 {
		t.Fatalf("rows charged = %d, want 10000", rows)
	}
}
