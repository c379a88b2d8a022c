package datagen

import (
	"fmt"
	"math"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// The suites below mirror the paper's Table V at configurable scale. `size`
// is the base edge length: the paper's 512³ Nyx grid corresponds to
// NyxField(..., size=512); tests use 16–32, experiments 48–96. Field values
// are engineered to reproduce the Table I feature signatures:
//
//	Nyx       — log-normal densities with halo clumps, high dynamic range
//	QMCPack   — oscillatory orbital textures, moderate range, 4D layout
//	RTM       — FDTD wavefields, tiny value range, wave patterns
//	Hurricane — smooth temperature with moving vortex; sparse cloud water
//	            (large constant regions exercising the CA optimization)

// NyxFields lists the four Nyx fields the paper evaluates.
var NyxFields = []string{"baryon_density", "dark_matter_density", "temperature", "velocity_x"}

// NyxField generates one Nyx-like cosmology field of size³ cells.
// config selects the simulation configuration (capability level 2): config 1
// is the "Nyx-1" training run, config 2 the "Nyx-2" testing run with a
// different seed, power spectrum and growth factor. timeStep evolves
// structure coherently.
func NyxField(field string, config, timeStep, size int) (*grid.Field, error) {
	if size < 8 {
		return nil, fmt.Errorf("datagen: nyx size %d too small", size)
	}
	var seed uint64
	var sigma, freq, growth float64
	switch config {
	case 1:
		seed, sigma, freq, growth = 0xA11CE, 1.9, 3.0, 0.04
	case 2:
		seed, sigma, freq, growth = 0xB0B42, 2.15, 3.6, 0.05
	default:
		return nil, fmt.Errorf("datagen: nyx config %d not in {1, 2}", config)
	}
	t := float64(timeStep)
	sig := sigma * (1 + growth*t)
	adv := 0.08 * t
	oct := OctavesFor(size, freq)

	name := fmt.Sprintf("nyx-%d/%s/ts%d", config, field, timeStep)
	f := grid.MustNew(name, size, size, size)
	inv := 1 / float64(size)

	// Halo catalog: clumps at hashed comoving positions, shared across
	// fields of one config so density/temperature stay physically coherent.
	type halo struct{ z, y, x, m float64 }
	nh := 6 + size/8
	halos := make([]halo, nh)
	for i := range halos {
		halos[i] = halo{
			z: 0.5 + 0.5*latticeHash(seed+77, int64(i), 1, 0, 0),
			y: 0.5 + 0.5*latticeHash(seed+77, int64(i), 2, 0, 0),
			x: 0.5 + 0.5*latticeHash(seed+77, int64(i), 3, 0, 0),
			m: 2 + 3*math.Abs(latticeHash(seed+77, int64(i), 4, 0, 0)),
		}
	}
	sigma2 := math.Max(0.05, 3.0/float64(size))
	sigma2 *= sigma2
	haloAt := func(zf, yf, xf float64) float64 {
		var s float64
		for _, h := range halos {
			dz, dy, dx := zf-h.z, yf-h.y, xf-h.x
			r2 := (dz*dz + dy*dy + dx*dx) / (2 * sigma2)
			if r2 < 25 {
				s += h.m * math.Exp(-r2)
			}
		}
		return s
	}

	for z := 0; z < size; z++ {
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				zf, yf, xf := float64(z)*inv, float64(y)*inv, float64(x)*inv
				g := FBM3(seed, zf+adv, yf+adv*0.7, xf, freq, oct, 0.55)
				var v float64
				switch field {
				case "baryon_density":
					v = math.Exp(sig*g) * (1 + haloAt(zf, yf, xf))
				case "dark_matter_density":
					g2 := FBM3(seed+13, zf+adv, yf, xf, freq*1.4, oct, 0.65)
					v = math.Exp(sig*1.1*g2) * (1 + 1.5*haloAt(zf, yf, xf))
				case "temperature":
					// Shock-heated gas: voids sit at the CMB-like floor
					// temperature, which produces the large constant blocks
					// visible in the paper's Fig 6 (Nyx temperature is its
					// Compressibility Adjustment illustration).
					rho := math.Exp(sig * g)
					if rho > 0.8 {
						g3 := FBM3(seed+29, zf, yf+adv, xf, freq*0.8, oct, 0.5)
						v = 300 + 8e3*math.Pow(rho-0.8, 0.8) + 1e3*(g3+1)
					} else {
						v = 300
					}
				case "velocity_x":
					v = 3e2 * FBM3(seed+41, zf, yf, xf+adv, freq*0.6, 2, 0.45)
				default:
					return nil, fmt.Errorf("datagen: unknown nyx field %q", field)
				}
				f.Set(float32(v), z, y, x)
			}
		}
	}
	return f, nil
}

// HurricaneFields lists the two Hurricane Isabel fields the paper uses in
// its evaluation. The generator also provides U, V, W and PRECIPf (SDRBench
// carries 13 Isabel fields; these are the commonly used extras).
var HurricaneFields = []string{"QCLOUD", "TC"}

// HurricaneField generates one Hurricane-Isabel-like weather field on a
// size×5·size×5·size grid (the paper's 100×500×500 aspect ratio).
// The storm vortex translates with the time step, which makes later time
// steps (test data) genuinely different from earlier ones (training data) —
// capability level 1.
func HurricaneField(field string, timeStep, size int) (*grid.Field, error) {
	if size < 4 {
		return nil, fmt.Errorf("datagen: hurricane size %d too small", size)
	}
	const seed = 0x15ABE1
	nz, ny, nx := size, 5*size, 5*size
	t := float64(timeStep)
	// Storm track: the eye drifts across the domain.
	cy := 0.35 + 0.006*t
	cx := 0.60 - 0.007*t

	octTC := OctavesFor(ny, 2.5)
	octQC := OctavesFor(ny, 6)
	name := fmt.Sprintf("hurricane/%s/ts%d", field, timeStep)
	f := grid.MustNew(name, nz, ny, nx)
	for z := 0; z < nz; z++ {
		zf := float64(z) / float64(nz)
		for y := 0; y < ny; y++ {
			yf := float64(y) / float64(ny)
			for x := 0; x < nx; x++ {
				xf := float64(x) / float64(nx)
				dy, dx := yf-cy, xf-cx
				r := math.Hypot(dy, dx)
				ang := math.Atan2(dy, dx)
				var v float64
				switch field {
				case "TC":
					// Temperature: lapse rate with altitude, warm core at the
					// eye, large-scale smooth gradients.
					g := FBM3(seed, zf, yf+0.01*t, xf, 2.5, octTC, 0.5)
					warmCore := 12 * math.Exp(-r*r*120) * (1 - zf)
					v = 25 - 70*zf + 8*g + warmCore
				case "QCLOUD":
					// Cloud water: zero outside clouds (the paper's large
					// constant regions), spiral rainbands around the eye.
					g := FBM3(seed+3, zf*2, yf*2+0.01*t, xf*2, 6, octQC, 0.6)
					spiral := math.Cos(3*ang + 25*r - 0.05*t)
					band := math.Exp(-math.Abs(r-0.12)*14) * math.Max(0, spiral)
					cloud := g*0.5 + band - 0.35
					if cloud < 0 {
						cloud = 0
					}
					v = 2.5e-3 * cloud * cloud * (1 - zf*0.8)
				case "U", "V":
					// Horizontal wind: tangential vortex flow plus a steering
					// background current and turbulence. Tangential speed
					// peaks at the eyewall radius and decays outside (a
					// Rankine-like profile).
					tang := 55.0 * rankine(r, 0.12)
					g := FBM3(seed+11, zf, yf+0.01*t, xf, 4, octTC, 0.55)
					if field == "U" {
						v = -tang*math.Sin(ang) + 6 + 5*g
					} else {
						v = tang*math.Cos(ang) - 3 + 5*g
					}
					v *= 1 - 0.5*zf
				case "W":
					// Vertical velocity: updrafts concentrated in the
					// rainbands, weak elsewhere.
					spiral := math.Cos(3*ang + 25*r - 0.05*t)
					band := math.Exp(-math.Abs(r-0.12)*14) * math.Max(0, spiral)
					g := FBM3(seed+17, zf*2, yf*2, xf*2, 6, octQC, 0.6)
					v = 4*band*math.Sin(math.Pi*zf) + 0.4*g
				case "PRECIPf":
					// Precipitation mixing ratio: sparse like QCLOUD but
					// concentrated closer to the surface.
					g := FBM3(seed+23, zf*2, yf*2+0.01*t, xf*2, 6, octQC, 0.6)
					spiral := math.Cos(4*ang + 22*r - 0.04*t)
					band := math.Exp(-math.Abs(r-0.10)*16) * math.Max(0, spiral)
					p := g*0.4 + band - 0.42
					if p < 0 {
						p = 0
					}
					v = 4e-3 * p * p * math.Exp(-3*zf)
				default:
					return nil, fmt.Errorf("datagen: unknown hurricane field %q", field)
				}
				f.Set(float32(v), z, y, x)
			}
		}
	}
	return f, nil
}

// QMCPackField generates a QMCPack-like 4D orbital field [orbitals, nz, ny,
// nx] for the given configuration and spin channel. Configurations differ in
// orbital count, mimicking the paper's QMCPack-1/2/3 (288/480/816 orbitals)
// at reduced scale: config c has (4+4c)·size/16 orbitals.
func QMCPackField(config, spin, size int) (*grid.Field, error) {
	if config < 1 || config > 3 {
		return nil, fmt.Errorf("datagen: qmcpack config %d not in 1..3", config)
	}
	if spin != 0 && spin != 1 {
		return nil, fmt.Errorf("datagen: qmcpack spin %d not in {0, 1}", spin)
	}
	if size < 8 {
		return nil, fmt.Errorf("datagen: qmcpack size %d too small", size)
	}
	norb := (4 + 4*config) * size / 16
	if norb < 3 {
		norb = 3
	}
	nz, ny, nx := size, size*3/4, size*3/4
	if ny < 6 {
		ny, nx = 6, 6
	}
	seed := uint64(0xC0FFEE + config*1000 + spin)

	name := fmt.Sprintf("qmcpack-%d/spin%d", config, spin)
	f := grid.MustNew(name, norb, nz, ny, nx)
	for k := 0; k < norb; k++ {
		// Each orbital: superposition of three plane waves whose frequency
		// grows with the orbital index, under a soft envelope.
		var kz, ky, kx, ph [3]float64
		for j := 0; j < 3; j++ {
			base := float64(k)*0.9 + 2
			if cap := float64(size) / 5; base > cap {
				base = cap
			}
			kz[j] = base * (1 + 0.7*latticeHash(seed, int64(k), int64(j), 1, 0))
			ky[j] = base * (1 + 0.7*latticeHash(seed, int64(k), int64(j), 2, 0))
			kx[j] = base * (1 + 0.7*latticeHash(seed, int64(k), int64(j), 3, 0))
			ph[j] = math.Pi * latticeHash(seed, int64(k), int64(j), 4, 0)
		}
		for z := 0; z < nz; z++ {
			zf := float64(z) / float64(nz)
			for y := 0; y < ny; y++ {
				yf := float64(y) / float64(ny)
				for x := 0; x < nx; x++ {
					xf := float64(x) / float64(nx)
					var psi float64
					for j := 0; j < 3; j++ {
						psi += math.Cos(kz[j]*zf*2*math.Pi + ky[j]*yf*2*math.Pi + kx[j]*xf*2*math.Pi + ph[j])
					}
					env := math.Exp(-((zf-0.5)*(zf-0.5) + (yf-0.5)*(yf-0.5) + (xf-0.5)*(xf-0.5)) * 2)
					// Positive-density-like values: range ~[0, 35].
					v := 4 * env * psi * psi
					f.Set(float32(v), k, z, y, x)
				}
			}
		}
	}
	return f, nil
}

// RTMSnapshots runs the FDTD acoustic solver and captures wavefield
// snapshots at the requested time steps (ascending). sizeClass "small" uses
// a (2s, 4s, 4s) grid and "big" a (2s, 8s, 8s) grid, mirroring the paper's
// RTM-SmallScale/BigScale pair; both share the physics but not the mesh, so
// small-scale training and big-scale testing is a genuine configuration
// change (capability level 2).
func RTMSnapshots(sizeClass string, steps []int, size int) ([]*grid.Field, error) {
	var nz, ny, nx int
	var seed uint64
	switch sizeClass {
	case "small":
		nz, ny, nx, seed = 2*size, 4*size, 4*size, 0x5E15
	case "big":
		nz, ny, nx, seed = 2*size, 8*size, 8*size, 0x5E15+1
	default:
		return nil, fmt.Errorf("datagen: rtm size class %q not in {small, big}", sizeClass)
	}
	sim, err := NewWaveSim(seed, nz, ny, nx)
	if err != nil {
		return nil, err
	}
	out := make([]*grid.Field, 0, len(steps))
	prev := -1
	for _, st := range steps {
		if st <= prev {
			return nil, fmt.Errorf("datagen: rtm steps must be ascending, got %v", steps)
		}
		sim.StepTo(st)
		snap := sim.Snapshot(fmt.Sprintf("rtm-%s/snapshot-%d", sizeClass, st))
		addRTMBackground(snap)
		out = append(out, snap)
		prev = st
	}
	return out, nil
}

// addRTMBackground superimposes the smooth positive illumination background
// RTM snapshots carry on top of the oscillating wavefield. This matches the
// Table I signature of the paper's RTM data — a small value range (~0.1)
// with a mean around half of it (0.09 for range 0.16) — and it is what
// makes the λ·mean constant-block threshold of the Compressibility
// Adjustment meaningful on seismic data (a zero-mean field would get a
// near-zero threshold).
func addRTMBackground(f *grid.Field) {
	const (
		waveScale = 0.06 // target wave amplitude in field units
		baseLevel = 0.05
		baseGrad  = 0.03
	)
	// One fixed scale for every snapshot and size class: the source wavelet
	// amplitude is a simulation constant, so a constant factor keeps all
	// snapshots in identical units (propagated wavefronts sit at ~0.005–0.03
	// raw, i.e. ~0.03–0.15 scaled ≈ waveScale).
	const scale = float32(5 * waveScale / 0.06)
	nz := f.Dims[0]
	plane := f.Size() / nz
	for z := 0; z < nz; z++ {
		bg := float32(baseLevel + baseGrad*float64(z)/float64(nz))
		base := z * plane
		for i := 0; i < plane; i++ {
			f.Data[base+i] = f.Data[base+i]*scale + bg
		}
	}
}

// rankine is the normalised Rankine vortex tangential-speed profile: linear
// growth inside the eyewall radius rm, 1/r decay outside.
func rankine(r, rm float64) float64 {
	if r <= 0 {
		return 0
	}
	if r < rm {
		return r / rm
	}
	return rm / r
}
