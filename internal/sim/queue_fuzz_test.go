package sim

import (
	"errors"
	"math"
	"sort"
	"testing"

	"lacc/internal/mem"
)

// queueFuzzIDs are the core ids the queue fuzzer schedules; the last is
// the largest id a configuration may have, so the id field's top bit is
// exercised too.
var queueFuzzIDs = [...]int32{0, 1, 2, 3, 4, 5, 6, MaxCores - 1}

// queueFuzzSteps are the clock offsets an operation applies to the current
// minimum: ties, small steps, one maximal compute gap, and offsets on both
// sides of the 48 bits a packed key holds above its base.
var queueFuzzSteps = [...]mem.Cycle{
	0, 1, 2, 1000, math.MaxUint32,
	1 << 40, 1 << 47, 1<<48 - 2, 1<<48 - 1, 1 << 48, 1<<48 + 1,
}

type queueRefKey struct {
	now mem.Cycle
	id  int32
}

func (k queueRefKey) less(o queueRefKey) bool {
	return k.now < o.now || (k.now == o.now && k.id < o.id)
}

// queueRef is the reference run queue: a slice kept sorted by (now, id).
type queueRef []queueRefKey

func (r *queueRef) insert(k queueRefKey) {
	i := sort.Search(len(*r), func(i int) bool { return k.less((*r)[i]) })
	*r = append(*r, queueRefKey{})
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = k
}

// fits reports whether k can join r without the queued clocks spanning
// more than a packed key can hold.
func (r queueRef) fits(k queueRefKey) bool {
	lo, hi := k.now, k.now
	for _, e := range r {
		lo, hi = min(lo, e.now), max(hi, e.now)
	}
	return hi-lo <= queueMaxSpan
}

// FuzzCoreQueue drives the packed run queue and a sorted-slice reference
// with the same push, replaceTop and popTop sequence, checking the root
// and the length after every operation and the full pop order
// at the end. Clocks are drawn relative to the current minimum, forwards
// and backwards, near and past 2^48, so rebasing in both directions and
// the span error both occur: an operation must fail exactly when the
// clocks it would leave queued span more than queueMaxSpan.
func FuzzCoreQueue(f *testing.F) {
	f.Add(uint64(0), []byte{0, 0, 0, 3, 0, 4, 1, 4, 1, 9, 1, 0, 2, 0, 1, 8, 2, 0})
	f.Add(uint64(1<<48-10), []byte{0, 1, 0, 2, 0, 3, 1, 4, 1, 4, 1, 4, 0, 0, 1, 7, 2, 0, 1, 2})
	f.Add(uint64(1<<47), []byte{0, 0, 0, 0x87, 0, 0x85, 1, 9, 0, 9, 1, 10, 2, 0})
	f.Add(uint64(5), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 8, 1, 8, 1, 8})
	f.Fuzz(func(t *testing.T, start uint64, ops []byte) {
		var q coreQueue
		q.reset(len(queueFuzzIDs))
		var ref queueRef
		queued := map[int32]bool{}
		clock := func(arg byte) mem.Cycle {
			base := mem.Cycle(start % (1 << 62))
			if len(ref) > 0 {
				base = ref[0].now
			}
			step := queueFuzzSteps[int(arg&0x7f)%len(queueFuzzSteps)]
			if arg&0x80 != 0 {
				if step > base {
					return 0
				}
				return base - step
			}
			return base + step
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			var err error
			var want queueRefKey
			var rest queueRef
			switch op % 3 {
			case 0: // push a core that is not queued
				var free []int32
				for _, id := range queueFuzzIDs {
					if !queued[id] {
						free = append(free, id)
					}
				}
				if len(free) == 0 {
					continue
				}
				want = queueRefKey{clock(arg), free[int(arg)%len(free)]}
				rest = ref
				err = q.push(want.now, want.id)
			case 1: // re-key the root
				if len(ref) == 0 {
					continue
				}
				want = queueRefKey{clock(arg), ref[0].id}
				rest = ref[1:]
				err = q.replaceTop(want.now, want.id)
			case 2: // pop the root
				if len(ref) == 0 {
					continue
				}
				q.popTop()
				delete(queued, ref[0].id)
				ref = ref[1:]
			}
			if op%3 != 2 {
				if fits := rest.fits(want); (err == nil) != fits {
					t.Fatalf("op %d: queueing %+v over %+v: err %v, reference fits=%v", i/2, want, rest, err, fits)
				}
				if err != nil {
					if !errors.Is(err, errQueueSpan) {
						t.Fatalf("op %d: unexpected error %v", i/2, err)
					}
					return // the engine abandons the run on this error
				}
				ref = append(queueRef(nil), rest...)
				ref.insert(want)
				queued[want.id] = true
			}
			checkQueueAgainstRef(t, i/2, &q, ref)
		}
		for len(ref) > 0 {
			if got := q.top(); got != ref[0].id {
				t.Fatalf("drain: top %d, want %d", got, ref[0].id)
			}
			q.popTop()
			ref = ref[1:]
		}
		if len(q.q) != 0 {
			t.Fatalf("drain: %d entries left", len(q.q))
		}
	})
}

// checkQueueAgainstRef compares every observable of q with the reference.
func checkQueueAgainstRef(t *testing.T, step int, q *coreQueue, ref queueRef) {
	t.Helper()
	if len(q.q) != len(ref) {
		t.Fatalf("op %d: queue holds %d entries, reference %d", step, len(q.q), len(ref))
	}
	if s := q.q[:len(q.q)+1][len(q.q)]; s != queueSentinel {
		t.Fatalf("op %d: slot past the last entry holds %#x, want the sentinel", step, s)
	}
	if len(ref) == 0 {
		return
	}
	if got := q.top(); got != ref[0].id {
		t.Fatalf("op %d: top %d, want %d (reference %+v)", step, got, ref[0].id, ref)
	}
}
