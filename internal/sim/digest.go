package sim

import (
	"fmt"
	"math"
	"reflect"
)

// FNV-1a constants (64-bit).
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

// DigestHook folds every dispatched event's (virtual time, handler name,
// dispatch sequence) into a running FNV-1a digest. Two runs of the same
// workload must produce the same digest; a mismatch means the schedule
// itself diverged — the exact failure mode map iteration order, wall-clock
// reads, or unseeded randomness introduce. It is the runtime complement to
// the triosimvet static analyzers.
//
// Each event is labelled by the dynamic types of the event and its handler,
// which are stable across runs of a binary: the fmt.Sprintf("%T/%T") string,
// computed once per type pair rather than on every dispatch.
type DigestHook struct {
	digest uint64
	count  uint64
	// names memoizes the label of every (event, handler) type pair seen so
	// far other than funcEvent's, which is the constant funcEventName.
	names map[[2]reflect.Type]string
}

// funcEventName labels every funcEvent, pooled or not: its handler is always
// the cached sim.HandlerFunc method value.
var funcEventName = fmt.Sprintf("%T/%T", (*funcEvent)(nil), HandlerFunc(nil))

// NewDigestHook returns a hook with an empty digest.
func NewDigestHook() *DigestHook {
	return &DigestHook{digest: fnvOffset}
}

var _ Hook = (*DigestHook)(nil)

// Func implements Hook, folding each dispatch as it begins.
func (d *DigestHook) Func(ctx HookCtx) {
	if ctx.Pos != HookPosBeforeEvent {
		return
	}
	d.foldUint64(math.Float64bits(float64(ctx.Now)))
	if e, ok := ctx.Item.(Event); ok {
		d.foldString(d.eventName(e))
		d.foldUint64(uint64(boolBit(e.IsSecondary())))
	}
	d.foldUint64(d.count)
	d.count++
}

// eventName returns fmt.Sprintf("%T/%T", e, e.Handler()), computing it once
// per dynamic type pair.
func (d *DigestHook) eventName(e Event) string {
	if _, ok := e.(*funcEvent); ok {
		return funcEventName
	}
	h := e.Handler()
	key := [2]reflect.Type{reflect.TypeOf(e), reflect.TypeOf(h)}
	if name, ok := d.names[key]; ok {
		return name
	}
	if d.names == nil {
		d.names = map[[2]reflect.Type]string{}
	}
	name := fmt.Sprintf("%T/%T", e, h)
	d.names[key] = name
	return name
}

// Sum64 returns the digest over all events folded so far.
func (d *DigestHook) Sum64() uint64 { return d.digest }

// Count returns the number of events folded.
func (d *DigestHook) Count() uint64 { return d.count }

func (d *DigestHook) foldUint64(v uint64) {
	for i := 0; i < 8; i++ {
		d.digest = (d.digest ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
}

func (d *DigestHook) foldString(s string) {
	for i := 0; i < len(s); i++ {
		d.digest = (d.digest ^ uint64(s[i])) * fnvPrime
	}
	d.foldUint64(uint64(len(s)))
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ReplayCheck runs the workload `runs` times, each on a fresh engine with a
// fresh DigestHook, and returns the common event digest. It fails when any
// run's digest (or event count) differs from the first — the replay gate CI
// uses to prove the simulation is deterministic end to end.
func ReplayCheck(runs int, workload func(eng *SerialEngine) error) (uint64, error) {
	if runs < 2 {
		return 0, fmt.Errorf("sim: ReplayCheck needs at least 2 runs, got %d", runs)
	}
	var first *DigestHook
	for i := 0; i < runs; i++ {
		eng := NewSerialEngine()
		d := NewDigestHook()
		eng.RegisterHook(d)
		if err := workload(eng); err != nil {
			return 0, fmt.Errorf("sim: ReplayCheck run %d: %w", i+1, err)
		}
		if err := eng.Run(); err != nil {
			return 0, fmt.Errorf("sim: ReplayCheck run %d: %w", i+1, err)
		}
		if first == nil {
			first = d
			continue
		}
		if d.Sum64() != first.Sum64() || d.Count() != first.Count() {
			return 0, fmt.Errorf(
				"sim: replay divergence on run %d: digest %#x (%d events) vs %#x (%d events)",
				i+1, d.Sum64(), d.Count(), first.Sum64(), first.Count())
		}
	}
	return first.Sum64(), nil
}
