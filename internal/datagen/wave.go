package datagen

import (
	"fmt"
	"math"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// WaveSim is a 3D acoustic finite-difference time-domain (FDTD) solver used
// to generate RTM-like seismic wavefield snapshots. It integrates the scalar
// wave equation ∂²p/∂t² = c²∇²p with a second-order leapfrog scheme over a
// heterogeneous layered velocity model, injecting a Ricker wavelet at a
// source point — the same physics reverse time migration propagates, which
// is what gives RTM snapshots their characteristic low-amplitude wave
// textures (paper Fig. 4).
type WaveSim struct {
	nz, ny, nx int
	c2dt2      []float32 // (c·dt/dx)² per cell
	p, pPrev   []float32
	step       int
	srcIdx     int
	srcFreq    float64
	dt         float64
}

// NewWaveSim builds a solver on an nz×ny×nx grid with a layered velocity
// model perturbed by seeded noise (velocities 1.5–4.0 in grid units).
func NewWaveSim(seed uint64, nz, ny, nx int) (*WaveSim, error) {
	if nz < 8 || ny < 8 || nx < 8 {
		return nil, fmt.Errorf("datagen: wave grid %dx%dx%d too small (min 8 per dim)", nz, ny, nx)
	}
	n := nz * ny * nx
	s := &WaveSim{
		nz: nz, ny: ny, nx: nx,
		c2dt2: make([]float32, n),
		p:     make([]float32, n),
		pPrev: make([]float32, n),
		// The wavelet peaks at step t0/dt = (1.2/srcFreq)/dt ≈ 40 and is
		// spent by ~step 80, so snapshots from step ~100 on show a
		// propagating wavefront with stable amplitude rather than a still-
		// ramping source.
		srcFreq: 0.25,
		dt:      0.12, // CFL: cmax·dt/dx = 4·0.12 = 0.48 < 1/√3
	}
	// Layered velocity: speed increases with depth, with lateral variation
	// and a few dipping interfaces, like a simplified Marmousi-style model.
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				depth := float64(z) / float64(nz)
				layer := math.Floor(depth*6 + 1.5*Noise3(seed, float64(x)/24, float64(y)/24, 0))
				c := 1.5 + 0.4*layer + 0.1*Noise3(seed+1, float64(x)/10, float64(y)/10, float64(z)/10)
				if c < 1.5 {
					c = 1.5
				}
				if c > 4.0 {
					c = 4.0
				}
				v := c * s.dt // dx = 1
				s.c2dt2[(z*ny+y)*nx+x] = float32(v * v)
			}
		}
	}
	s.srcIdx = (2*ny + ny/2) * nx // near-surface source, centered in y,x
	s.srcIdx += nx / 2
	return s, nil
}

// Step advances the wavefield one time step.
func (s *WaveSim) Step() {
	nz, ny, nx := s.nz, s.ny, s.nx
	p, prev := s.p, s.pPrev
	next := prev // reuse: prev becomes next in the leapfrog rotation
	for z := 1; z < nz-1; z++ {
		for y := 1; y < ny-1; y++ {
			base := (z*ny + y) * nx
			for x := 1; x < nx-1; x++ {
				i := base + x
				lap := p[i-1] + p[i+1] + p[i-nx] + p[i+nx] + p[i-nx*ny] + p[i+nx*ny] - 6*p[i]
				next[i] = 2*p[i] - prev[i] + s.c2dt2[i]*lap
			}
		}
	}
	// Absorbing-ish boundary: simple damping sponge on the faces keeps
	// energy from reflecting back too strongly.
	s.damp(next)
	// Ricker wavelet source.
	t := float64(s.step) * s.dt
	t0 := 1.2 / s.srcFreq
	arg := math.Pi * math.Pi * s.srcFreq * s.srcFreq * (t - t0) * (t - t0)
	next[s.srcIdx] += float32((1 - 2*arg) * math.Exp(-arg) * 0.5)
	s.p, s.pPrev = next, p
	s.step++
}

func (s *WaveSim) damp(buf []float32) {
	const width = 4
	const factor = 0.90
	nz, ny, nx := s.nz, s.ny, s.nx
	att := func(d int) float32 {
		if d >= width {
			return 1
		}
		return float32(math.Pow(factor, float64(width-d)))
	}
	for z := 0; z < nz; z++ {
		dz := min3(z, nz-1-z, width)
		for y := 0; y < ny; y++ {
			dy := min3(y, ny-1-y, width)
			if dz >= width && dy >= width {
				// Only x edges need attention in this row.
				base := (z*ny + y) * nx
				for x := 0; x < width; x++ {
					buf[base+x] *= att(x)
					buf[base+nx-1-x] *= att(x)
				}
				continue
			}
			a := att(dz) * att(dy)
			base := (z*ny + y) * nx
			for x := 0; x < nx; x++ {
				buf[base+x] = buf[base+x] * a * att(min3(x, nx-1-x, width))
			}
		}
	}
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// StepTo advances the simulation to the given absolute time step.
func (s *WaveSim) StepTo(step int) {
	for s.step < step {
		s.Step()
	}
}

// Snapshot copies the current pressure field into a named grid field.
func (s *WaveSim) Snapshot(name string) *grid.Field {
	f := grid.MustNew(name, s.nz, s.ny, s.nx)
	copy(f.Data, s.p)
	return f
}
