package pool

import (
	"runtime"
	"sync"
	"testing"

	"github.com/fxrz-go/fxrz/internal/obs"
)

// sync.Pool may drop any Put (the race detector drops one in four on purpose,
// and a goroutine that migrates between Get and Put sees another P's cache),
// so the checks that need a recycled buffer to come back retry.
const slicesTries = 100

func TestSlicesHitMissRule(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Reset()
	counts := func() (hit, miss int64) {
		s := obs.TakeSnapshot()
		return s.Counters["test/hit"], s.Counters["test/miss"]
	}
	p := NewSlices[int]("test/hit", "test/miss")

	// A fresh pool has nothing to recycle: even Get(0) is a miss.
	if s := p.Get(0); len(s) != 0 {
		t.Fatalf("Get(0) has length %d", len(s))
	}
	if hit, miss := counts(); hit != 0 || miss != 1 {
		t.Fatalf("fresh Get(0): hit %d miss %d, want 0 1", hit, miss)
	}

	// Capacity handed back with Put comes out of the next Get that fits.
	recycled := false
	for try := 0; try < slicesTries && !recycled; try++ {
		p.Put(make([]int, 3, 16))
		s := p.Get(8)
		if len(s) != 8 {
			t.Fatalf("Get(8) has length %d", len(s))
		}
		recycled = cap(s) == 16
	}
	if !recycled {
		t.Fatal("a Put buffer never came back")
	}
	if hit, _ := counts(); hit < 1 {
		t.Fatalf("recycled Get recorded no hit")
	}

	// A request larger than the recycled capacity allocates: a miss.
	p.Put(make([]int, 4))
	hit0, miss0 := counts()
	if s := p.Get(5); len(s) != 5 {
		t.Fatalf("Get(5) has length %d", len(s))
	}
	if hit, miss := counts(); hit != hit0 || miss != miss0+1 {
		t.Fatalf("oversized Get: hit %d→%d miss %d→%d, want one miss", hit0, hit, miss0, miss)
	}

	// A zero-capacity Put is ignored, so it cannot shadow the real buffer
	// put after it.
	q := NewSlices[int]("test/hit", "test/miss")
	recycled = false
	for try := 0; try < slicesTries && !recycled; try++ {
		q.Put([]int{})
		q.Put(make([]int, 0, 16))
		recycled = cap(q.Get(8)) == 16
	}
	if !recycled {
		t.Fatal("a zero-capacity Put shadowed the buffer put after it")
	}
}

// TestSlicesSharedAcrossGoroutines has eight goroutines share one pool: each
// fills what it gets with its own id and checks it is still intact before
// handing it back. A buffer handed to two holders at once fails the check,
// and under -race is also reported as a data race.
func TestSlicesSharedAcrossGoroutines(t *testing.T) {
	const goroutines, rounds = 8, 200
	p := NewSlices[int]("test/hit", "test/miss")
	var wg sync.WaitGroup
	for g := 1; g <= goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := p.Get(1 + (r*id)%64)
				for i := range s {
					s[i] = id
				}
				runtime.Gosched()
				for i, v := range s {
					if v != id {
						t.Errorf("goroutine %d: slot %d holds %d — buffer shared while live", id, i, v)
						return
					}
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
}
