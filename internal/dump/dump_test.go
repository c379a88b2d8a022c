package dump

import (
	"testing"
	"time"
)

func TestSimulateSingleRank(t *testing.T) {
	tasks := []RankTask{{AnalysisTime: time.Second, CompressTime: 2 * time.Second, Bytes: 2e9}}
	res, err := Simulate(tasks, IOConfig{Bandwidth: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	// 1s analysis + 2s compress + 2e9 bytes at 1e9 B/s per channel = 2s I/O.
	want := 5 * time.Second
	if res.Makespan < want-time.Millisecond || res.Makespan > want+time.Millisecond {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
}

func TestIOContentionSerializes(t *testing.T) {
	// 4 ranks, instant compute, each writing 1e9 bytes through 2 channels at
	// 2e9 aggregate: per-channel 1e9 B/s, 2 rounds of 2 writes → 2 seconds.
	tasks := Uniform(4, RankTask{Bytes: 1e9})
	res, err := Simulate(tasks, IOConfig{Bandwidth: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * time.Second
	if res.Makespan < want-time.Millisecond || res.Makespan > want+time.Millisecond {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
}

func TestAnalysisCostDominatesAtScale(t *testing.T) {
	// The paper's mechanism: FRaZ pays many compressions per rank before
	// writing; FXRZ pays ~nothing. With compute fully parallel, the gain is
	// bounded by (analysis+compress)/(compress) when I/O is not the
	// bottleneck, and shrinks as I/O saturates.
	compress := 100 * time.Millisecond
	frazAnalysis := 15 * compress // 15-iteration search
	fxrzAnalysis := 5 * time.Millisecond

	for _, ranks := range []int{16, 256, 4096} {
		io := DefaultIO()
		bytes := int64(1e6)
		fxrz, err := Simulate(Uniform(ranks, RankTask{AnalysisTime: fxrzAnalysis, CompressTime: compress, Bytes: bytes}), io)
		if err != nil {
			t.Fatal(err)
		}
		fraz, err := Simulate(Uniform(ranks, RankTask{AnalysisTime: frazAnalysis, CompressTime: compress, Bytes: bytes}), io)
		if err != nil {
			t.Fatal(err)
		}
		g := Gain(fxrz, fraz)
		if g <= 1 {
			t.Errorf("ranks=%d: FXRZ gain %v <= 1", ranks, g)
		}
	}
}

func TestGainShrinksWhenIOBound(t *testing.T) {
	// When I/O dominates, analysis savings matter less: gain must shrink.
	compress := 10 * time.Millisecond
	small := int64(1e5)
	huge := int64(1e9)
	io := DefaultIO()
	ranks := 512

	gainFor := func(bytes int64) float64 {
		fxrz, err := Simulate(Uniform(ranks, RankTask{AnalysisTime: time.Millisecond, CompressTime: compress, Bytes: bytes}), io)
		if err != nil {
			t.Fatal(err)
		}
		fraz, err := Simulate(Uniform(ranks, RankTask{AnalysisTime: 150 * time.Millisecond, CompressTime: compress, Bytes: bytes}), io)
		if err != nil {
			t.Fatal(err)
		}
		return Gain(fxrz, fraz)
	}
	if gainFor(huge) >= gainFor(small) {
		t.Errorf("I/O-bound gain (%v) should be below compute-bound gain (%v)", gainFor(huge), gainFor(small))
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(nil, DefaultIO()); err == nil {
		t.Error("empty task list accepted")
	}
	if _, err := Simulate(Uniform(1, RankTask{}), IOConfig{}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := Simulate([]RankTask{{Bytes: -1}}, DefaultIO()); err == nil {
		t.Error("negative bytes accepted")
	}
}

func TestIOBusyAccounting(t *testing.T) {
	tasks := Uniform(8, RankTask{Bytes: 5e8})
	res, err := Simulate(tasks, IOConfig{Bandwidth: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	// 8 × 5e8 bytes at 1e9 B/s per channel = 4 seconds of channel time.
	want := 4 * time.Second
	if res.IOBusy < want-time.Millisecond || res.IOBusy > want+time.Millisecond {
		t.Errorf("IOBusy = %v, want %v", res.IOBusy, want)
	}
	if res.Makespan < res.IOBusy/channels {
		t.Errorf("makespan %v below the I/O time %v spread over %d channels", res.Makespan, res.IOBusy, channels)
	}
}

func TestStragglerDominatesMakespan(t *testing.T) {
	// Heterogeneous ranks: one straggler with a long analysis holds the
	// dump's completion even when everyone else finished long before — the
	// reason per-rank FRaZ search variance hurts at scale.
	tasks := Uniform(63, RankTask{AnalysisTime: 10 * time.Millisecond, CompressTime: 10 * time.Millisecond, Bytes: 1e5})
	tasks = append(tasks, RankTask{AnalysisTime: 5 * time.Second, CompressTime: 10 * time.Millisecond, Bytes: 1e5})
	res, err := Simulate(tasks, DefaultIO())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 5*time.Second {
		t.Errorf("makespan %v below the straggler's arrival", res.Makespan)
	}
	uniform, err := Simulate(Uniform(64, RankTask{AnalysisTime: 10 * time.Millisecond, CompressTime: 10 * time.Millisecond, Bytes: 1e5}), DefaultIO())
	if err != nil {
		t.Fatal(err)
	}
	if g := Gain(uniform, res); g < 10 {
		t.Errorf("straggler run only %vx slower than uniform", g)
	}
}
