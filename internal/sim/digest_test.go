package sim

import (
	"strings"
	"testing"
)

// mixedWorkload schedules a deliberately adversarial mix: primary and
// secondary events at identical timestamps, cascading re-schedules, and
// ties that only the (time, secondary, sequence) total order resolves.
func mixedWorkload(eng *SerialEngine) error {
	for i := 0; i < 8; i++ {
		i := i
		at := VTime(1 + i%3) // times 1,2,3 with many ties
		eng.Schedule(NewFuncEvent(at, func(now VTime) error {
			if i%2 == 0 {
				eng.Schedule(NewSecondaryFuncEvent(now, func(VTime) error {
					return nil
				}))
			}
			eng.Schedule(NewFuncEvent(now+VTime(i)*MSec, func(VTime) error {
				return nil
			}))
			return nil
		}))
		eng.Schedule(NewSecondaryFuncEvent(at, func(VTime) error { return nil }))
	}
	return nil
}

// goldenMixedDigest pins the event-schedule digest of mixedWorkload. If an
// engine change alters same-time ordering (primary-before-secondary, FIFO
// within a class), this value changes and the regression is caught — update
// it only when the ordering change is intentional and documented.
const goldenMixedDigest = uint64(0xb74c39ce8ef02660)

func TestMixedWorkloadDigestStable(t *testing.T) {
	digest, err := ReplayCheck(3, mixedWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if digest != goldenMixedDigest {
		t.Fatalf("mixed workload digest = %#x, want pinned %#x "+
			"(same-time event ordering changed?)", digest, goldenMixedDigest)
	}
}

func TestReplayCheckDetectsDivergence(t *testing.T) {
	run := 0
	diverging := func(eng *SerialEngine) error {
		run++
		eng.Schedule(NewFuncEvent(VTime(run), func(VTime) error { return nil }))
		return nil
	}
	_, err := ReplayCheck(2, diverging)
	if err == nil {
		t.Fatal("ReplayCheck accepted a diverging workload")
	}
	if !strings.Contains(err.Error(), "replay divergence") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestReplayCheckNeedsTwoRuns(t *testing.T) {
	if _, err := ReplayCheck(1, mixedWorkload); err == nil {
		t.Fatal("ReplayCheck(1, ...) should be rejected")
	}
}

func TestDigestHookCountsAndNames(t *testing.T) {
	eng := NewSerialEngine()
	d := NewDigestHook()
	eng.RegisterHook(d)
	for i := 1; i <= 3; i++ {
		eng.Schedule(NewFuncEvent(VTime(i), func(VTime) error { return nil }))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Count() != 3 {
		t.Fatalf("digest count = %d, want 3", d.Count())
	}
	if d.Sum64() == NewDigestHook().Sum64() {
		t.Fatal("digest did not change after events")
	}
}

func TestDigestDiffersAcrossSchedules(t *testing.T) {
	digestOf := func(times []VTime) uint64 {
		eng := NewSerialEngine()
		d := NewDigestHook()
		eng.RegisterHook(d)
		for _, at := range times {
			eng.Schedule(NewFuncEvent(at, func(VTime) error { return nil }))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return d.Sum64()
	}
	if digestOf([]VTime{1, 2, 3}) == digestOf([]VTime{1, 2, 4}) {
		t.Fatal("different schedules produced the same digest")
	}
}
