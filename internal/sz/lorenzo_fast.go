package sz

// Dimension-specialized Lorenzo quantization kernels.
//
// The generic codec walks a subset-mask loop plus a coordinate odometer for
// every point (see lorenzo in sz.go). For the 1D/2D/3D fields the paper's
// datasets actually use, the kernels below split each row into its first
// column (a boundary point with a reduced stencil) and the row interior,
// where the full fixed-offset stencil applies and the inner loop is free of
// subset masks, odometer steps and boundary branches. The 2D and 3D kernels
// also run rowGroup rows at once, one column apart, so the recurrence is
// rowGroup independent chains rather than one.
//
// Bit-identity contract: every kernel accumulates the same stencil terms in
// the same subset-mask order as lorenzo.predict (pred starts at 0.0 and each
// term is added or subtracted in mask order), and the quantize/escape step is
// the shared encPoint/decPoint, so the specialized paths produce byte-for-byte
// the same compressed blobs and bit-for-bit the same reconstructions as the
// generic path. Running rows in flight reorders only which point is computed
// when, never a point's own arithmetic; escapes are gathered from the codes in
// row-major order after the pass (compressSZ), and on decode every row of a
// group starts from its own raw cursor (rowCursors). The decode kernels' steady
// steps (planeSteady, volumeSteady) carry the stencil neighbors in registers
// rather than reloading them, which changes where a term comes from, never
// its value or its place in the sum.
// TestCompressFastMatchesGenericBitwise and FuzzDecompress pin this.

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// rowGroup is how many rows the 2D and 3D kernels keep in flight. Point
// (y+1, x) reads row y only at columns x and x-1, so rows y..y+rowGroup-1 can
// advance together with row j one column behind row j-1: at each step the
// group's points are independent of one another, and the CPU overlaps their
// predict→quantize chains instead of waiting on one.
const rowGroup = 4

// encPoint quantizes value v against its Lorenzo prediction and returns its
// residual code and the decoder-visible reconstruction, or an escape (code 0,
// the value itself) when the residual cannot be represented within the bound.
// compressSZ collects the escaped values from the codes afterwards, from the
// field itself: the float64 round trip may quiet a signaling NaN's payload in
// recon, which only ever feeds predictions, where any NaN escapes.
//
// q is math.Round of the scaled residual x, computed as t + int(2(x-t)) with
// t = int(x): x-t is exact, so the second term is ±1 exactly when the
// fraction reaches one half. The range test runs on x before any integer
// conversion — math.Round(x) lies in (-radius, radius) exactly when |x| <
// radius-0.5 — so NaN and ±Inf fail it. The body fits Go's inlining budget.
//
// v arrives as a float64 and q goes through an integer register because the
// compiler emits CVTSS2SD, CVTSD2SS and ROUNDSD without breaking their false
// dependency on the destination register: converting inside the body, or
// rounding with math.Round/math.Trunc, made each point wait on the previous
// point's registers and serialized the rows a kernel keeps in flight.
func encPoint(v, pred, eb, twoEB float64) (uint16, float32) {
	x := (v - pred) / twoEB
	if x > -(radius-0.5) && x < radius-0.5 {
		q := int(x)
		q += int(2 * (x - float64(q)))
		// The reconstruction is rounded to float32 exactly as the decoder
		// will produce it; accept only if the bound holds after that rounding.
		rec := float32(pred + twoEB*float64(q))
		if e := float64(rec) - v; e <= eb && e >= -eb {
			return uint16(q + radius), rec
		}
	}
	return 0, float32(v)
}

// decValue reconstructs point s of codeBytes from its quantization code and
// returns it with the raw cursor, which it advances past an escaped value
// taken from the raw pool at pos; the caller has checked the pool holds it.
//
// A quantized point that reconstructs to NaN becomes the one quiet NaN
// 0x7fc00000: which payload a NaN stencil yields depends on the order of its
// adds, and the kernels and the generic oracle add in different orders. Only
// streams no encoder made get here — the encoder escapes every point whose
// prediction is not finite — so encoder-made reconstructions are unchanged.
func decValue(codeBytes []byte, s int, pred, twoEB float64, rawPayload []byte, pos int) (float32, int) {
	if code := binary.LittleEndian.Uint16(codeBytes[2*s:]); code != 0 {
		v := float32(pred + twoEB*float64(int(code)-radius))
		if v != v {
			v = math.Float32frombits(0x7fc00000)
		}
		return v, pos
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(rawPayload[4*pos:])), pos + 1
}

// decPoint is decValue storing into data[i] and *pos, for the loops that
// keep their rows' cursors in an array.
func decPoint(data []float32, i int, pred, twoEB float64, codeBytes, rawPayload []byte, pos *int) {
	data[i], *pos = decValue(codeBytes, i, pred, twoEB, rawPayload, *pos)
}

// quantizeField runs the prediction/quantization pass of Compress, writing a
// code and reconstruction for every point. forceGeneric routes through the
// N-d odometer path; it exists so tests and benchmarks can compare the
// specialized kernels against their oracle.
func quantizeField(f *grid.Field, eb float64, codes []uint16, recon []float32, forceGeneric bool) {
	if !forceGeneric && len(f.Dims) <= 3 {
		obs.Add("sz/quantize_fast_points", int64(len(f.Data)))
		switch len(f.Dims) {
		case 1:
			quantizePlane(f.Data, 1, f.Dims[0], eb, codes, recon)
		case 2:
			quantizePlane(f.Data, f.Dims[0], f.Dims[1], eb, codes, recon)
		case 3:
			quantizeVolume(f.Data, f.Dims, eb, codes, recon)
		}
		return
	}
	obs.Add("sz/quantize_generic_points", int64(len(f.Data)))
	quantizeFieldGeneric(f, eb, codes, recon)
}

// quantizeFieldGeneric is the N-dimensional odometer path: the fallback for
// 4D fields and the oracle the specialized kernels are tested against.
func quantizeFieldGeneric(f *grid.Field, eb float64, codes []uint16, recon []float32) {
	twoEB := 2 * eb
	lor := newLorenzo(f.Dims)
	for idx := range f.Data {
		codes[idx], recon[idx] = encPoint(float64(f.Data[idx]), lor.predict(recon, idx, lor.coord), eb, twoEB)
		lor.advance()
	}
}

// quantizePlane is the 2D row-group kernel: an ny×nx plane, which is a whole
// 2D field, a 1D field's one row, or the first plane of a 3D one (the same
// recurrence). Row 0 is a
// single chain; the rows below run rowGroup at a time — column 0 down the
// group, then the interior skewed one column per row.
func quantizePlane(data []float32, ny, nx int, eb float64, codes []uint16, recon []float32) {
	twoEB := 2 * eb
	codes[0], recon[0] = encPoint(float64(data[0]), 0, eb, twoEB)
	for i := 1; i < nx; i++ {
		p := 0.0
		p += float64(recon[i-1])
		codes[i], recon[i] = encPoint(float64(data[i]), p, eb, twoEB)
	}
	for y := 1; y < ny; y += rowGroup {
		k := min(rowGroup, ny-y)
		g := y * nx
		for i := g; i < g+k*nx; i += nx {
			p := 0.0
			p += float64(recon[i-nx])
			codes[i], recon[i] = encPoint(float64(data[i]), p, eb, twoEB)
		}
		// At step t row j is at column t-j; its point is g + t + j*(nx-1).
		for t := 1; t < nx+k-1; t++ {
			jlo, jhi := max(0, t-nx+1), min(k, t)
			for i, e := g+t+jlo*(nx-1), g+t+jhi*(nx-1); i < e; i += nx - 1 {
				p := 0.0
				p += float64(recon[i-nx])
				p += float64(recon[i-1])
				p -= float64(recon[i-nx-1])
				codes[i], recon[i] = encPoint(float64(data[i]), p, eb, twoEB)
			}
		}
	}
}

// quantizeVolume is the 3D row-group kernel. Plane 0 is quantizePlane; every
// later plane runs its row 0 as one chain and the rest rowGroup rows at a
// time, exactly as quantizePlane does, with the stencil terms that look back
// along z added in lorenzo.predict's subset-mask order.
func quantizeVolume(data []float32, dims []int, eb float64, codes []uint16, recon []float32) {
	nz, ny, nx := dims[0], dims[1], dims[2]
	s0 := ny * nx
	twoEB := 2 * eb
	quantizePlane(data[:s0], ny, nx, eb, codes, recon)
	for z := 1; z < nz; z++ {
		p0 := z * s0
		p := 0.0
		p += float64(recon[p0-s0])
		codes[p0], recon[p0] = encPoint(float64(data[p0]), p, eb, twoEB)
		for i := p0 + 1; i < p0+nx; i++ {
			p := 0.0
			p += float64(recon[i-s0])
			p += float64(recon[i-1])
			p -= float64(recon[i-s0-1])
			codes[i], recon[i] = encPoint(float64(data[i]), p, eb, twoEB)
		}
		for y := 1; y < ny; y += rowGroup {
			k := min(rowGroup, ny-y)
			g := p0 + y*nx
			for i := g; i < g+k*nx; i += nx {
				p := 0.0
				p += float64(recon[i-s0])
				p += float64(recon[i-nx])
				p -= float64(recon[i-s0-nx])
				codes[i], recon[i] = encPoint(float64(data[i]), p, eb, twoEB)
			}
			for t := 1; t < nx+k-1; t++ {
				jlo, jhi := max(0, t-nx+1), min(k, t)
				for i, e := g+t+jlo*(nx-1), g+t+jhi*(nx-1); i < e; i += nx - 1 {
					p := 0.0
					p += float64(recon[i-s0])
					p += float64(recon[i-nx])
					p -= float64(recon[i-s0-nx])
					p += float64(recon[i-1])
					p -= float64(recon[i-s0-1])
					p -= float64(recon[i-nx-1])
					p += float64(recon[i-s0-nx-1])
					codes[i], recon[i] = encPoint(float64(data[i]), p, eb, twoEB)
				}
			}
		}
	}
}

// errRawExhausted is the corruption error shared by every reconstruction
// kernel when a stream escapes more points than its raw pool holds.
func errRawExhausted() error {
	return fmt.Errorf("sz: %w: raw pool exhausted", compress.ErrCorrupt)
}

// reconstructBox is the one Lorenzo reconstruction entry point, called per
// slab by decodeRows. data holds the dims[0] rows of one slab — an
// independent sub-field, decoded from an empty predictor — and codeBytes
// their codes, starting at raw cursor rawPos. Only points inside the prefix
// box [0, hiTail[d]) of the trailing dimensions are written: every Lorenzo
// neighbor sits at offset -1, so the box is closed under dependencies and
// nothing outside it is ever read. Escape codes outside the box still
// consume their raw value — they are counted, not decoded — so the returned
// cursor is exact for whatever decodes next. A full decode is the call whose
// box is the whole slab.
func reconstructBox(data []float32, dims, hiTail []int, eb float64, codeBytes, rawPayload []byte, nraw uint64, rawPos int, forceGeneric bool) (int, error) {
	plane, box := elemCount(dims[1:]), elemCount(hiTail)
	rows := int64(dims[0])
	if box < plane {
		obs.Add("sz/region_points_skipped", rows*int64(plane-box))
	}
	if !forceGeneric && len(dims) <= 3 {
		obs.Add("sz/reconstruct_fast_points", rows*int64(box))
		switch len(dims) {
		case 1:
			return reconstructPlane(data, dims[0], 1, dims[0], 2*eb, codeBytes, rawPayload, nraw, rawPos)
		case 2:
			return reconstructPlane(data, dims[1], dims[0], hiTail[0], 2*eb, codeBytes, rawPayload, nraw, rawPos)
		case 3:
			return reconstructVolume(data, dims, hiTail[0], hiTail[1], eb, codeBytes, rawPayload, nraw, rawPos)
		}
	}
	obs.Add("sz/reconstruct_generic_points", rows*int64(box))
	return reconstructGeneric(data, dims, hiTail, eb, codeBytes, rawPayload, nraw, rawPos)
}

// reconstructGeneric is the N-d odometer decode path (4D fallback and test
// oracle), one point at a time under the reconstructBox contract. The
// prediction is pure, so computing it for escaped points too (which the
// dispatch kernels also do) cannot change the output.
func reconstructGeneric(data []float32, dims, hiTail []int, eb float64, codeBytes, rawPayload []byte, nraw uint64, rawPos int) (int, error) {
	twoEB := 2 * eb
	lor := newLorenzo(dims)
	for idx := range data {
		inBox := true
		for d, h := range hiTail {
			if lor.coord[d+1] >= h {
				inBox = false
				break
			}
		}
		escape := codeBytes[2*idx] == 0 && codeBytes[2*idx+1] == 0
		switch {
		case inBox && escape && uint64(rawPos) >= nraw:
			return 0, errRawExhausted()
		case inBox:
			decPoint(data, idx, lor.predict(data, idx, lor.coord), twoEB, codeBytes, rawPayload, &rawPos)
		case escape:
			rawPos++
		}
		lor.advance()
	}
	return rawPos, nil
}

// rowCursors gives each of the k rows of nx codes starting at code index g
// its raw-pool cursor, the first row's being rawPos, and returns the cursor
// past the group. Columns [hx, nx) of a row are outside the box: their
// escapes are counted, never fetched. It fails with errRawExhausted — before
// the group writes anything — exactly when a serial walk would run the pool
// dry on an in-box escape of one of these rows.
func rowCursors(cur *[rowGroup]int, codeBytes []byte, g, k, nx, hx int, nraw uint64, rawPos int) (int, error) {
	for j := 0; j < k; j++ {
		row := codeBytes[2*(g+j*nx) : 2*(g+(j+1)*nx)]
		cur[j] = rawPos
		if e := countEscapes(row[:2*hx]); e > 0 {
			if rawPos += e; uint64(rawPos) > nraw {
				return 0, errRawExhausted()
			}
		}
		rawPos += countEscapes(row[2*hx:])
	}
	return rawPos, nil
}

// reconstructPlane is the decode twin of quantizePlane: rows [0, ny) of a
// plane of nx-point rows (a 2D field, a 1D slab's one row, or plane 0 of a 3D
// one), writing the
// box columns [0, hx) of each. Every group takes its rows' raw cursors from
// rowCursors first, so the rows in flight fetch escapes independently.
func reconstructPlane(data []float32, nx, ny, hx int, twoEB float64, codeBytes, rawPayload []byte, nraw uint64, rawPos int) (int, error) {
	var cur [rowGroup]int
	rawPos, err := rowCursors(&cur, codeBytes, 0, 1, nx, hx, nraw, rawPos)
	if err != nil {
		return 0, err
	}
	decPoint(data, 0, 0, twoEB, codeBytes, rawPayload, &cur[0])
	for i := 1; i < hx; i++ {
		p := 0.0
		p += float64(data[i-1])
		decPoint(data, i, p, twoEB, codeBytes, rawPayload, &cur[0])
	}
	for y := 1; y < ny; y += rowGroup {
		k := min(rowGroup, ny-y)
		g := y * nx
		if rawPos, err = rowCursors(&cur, codeBytes, g, k, nx, hx, nraw, rawPos); err != nil {
			return 0, err
		}
		for j := 0; j < k; j++ {
			i := g + j*nx
			p := 0.0
			p += float64(data[i-nx])
			decPoint(data, i, p, twoEB, codeBytes, rawPayload, &cur[j])
		}
		for t := 1; t < hx+k-1; t++ {
			if t == rowGroup && k == rowGroup && hx > rowGroup {
				planeSteady(data, g, nx, hx, twoEB, codeBytes, rawPayload, &cur)
				t = hx - 1
				continue
			}
			jlo, jhi := max(0, t-hx+1), min(k, t)
			i := g + t + jlo*(nx-1)
			for j := jlo; j < jhi; j++ {
				p := 0.0
				p += float64(data[i-nx])
				p += float64(data[i-1])
				p -= float64(data[i-nx-1])
				decPoint(data, i, p, twoEB, codeBytes, rawPayload, &cur[j])
				i += nx - 1
			}
		}
	}
	return rawPos, nil
}

// reconstructVolume is the decode twin of quantizeVolume: every plane
// decoded over rows [0, hy) and columns [0, hx) of the box, with the escapes
// of rows [hy, ny) counted. Plane 0 is reconstructPlane.
func reconstructVolume(data []float32, dims []int, hy, hx int, eb float64, codeBytes, rawPayload []byte, nraw uint64, rawPos int) (int, error) {
	nz, ny, nx := dims[0], dims[1], dims[2]
	s0 := ny * nx
	twoEB := 2 * eb
	rawPos, err := reconstructPlane(data[:s0], nx, hy, hx, twoEB, codeBytes, rawPayload, nraw, rawPos)
	if err != nil {
		return 0, err
	}
	rawPos += countEscapes(codeBytes[2*hy*nx : 2*s0])
	var cur [rowGroup]int
	for z := 1; z < nz; z++ {
		p0 := z * s0
		if rawPos, err = rowCursors(&cur, codeBytes, p0, 1, nx, hx, nraw, rawPos); err != nil {
			return 0, err
		}
		p := 0.0
		p += float64(data[p0-s0])
		decPoint(data, p0, p, twoEB, codeBytes, rawPayload, &cur[0])
		for i := p0 + 1; i < p0+hx; i++ {
			p := 0.0
			p += float64(data[i-s0])
			p += float64(data[i-1])
			p -= float64(data[i-s0-1])
			decPoint(data, i, p, twoEB, codeBytes, rawPayload, &cur[0])
		}
		for y := 1; y < hy; y += rowGroup {
			k := min(rowGroup, hy-y)
			g := p0 + y*nx
			if rawPos, err = rowCursors(&cur, codeBytes, g, k, nx, hx, nraw, rawPos); err != nil {
				return 0, err
			}
			for j := 0; j < k; j++ {
				i := g + j*nx
				p := 0.0
				p += float64(data[i-s0])
				p += float64(data[i-nx])
				p -= float64(data[i-s0-nx])
				decPoint(data, i, p, twoEB, codeBytes, rawPayload, &cur[j])
			}
			for t := 1; t < hx+k-1; t++ {
				if t == rowGroup && k == rowGroup && hx > rowGroup {
					volumeSteady(data, g, s0, nx, hx, twoEB, codeBytes, rawPayload, &cur)
					t = hx - 1
					continue
				}
				jlo, jhi := max(0, t-hx+1), min(k, t)
				i := g + t + jlo*(nx-1)
				for j := jlo; j < jhi; j++ {
					p := 0.0
					p += float64(data[i-s0])
					p += float64(data[i-nx])
					p -= float64(data[i-s0-nx])
					p += float64(data[i-1])
					p -= float64(data[i-s0-1])
					p -= float64(data[i-nx-1])
					p += float64(data[i-s0-nx-1])
					decPoint(data, i, p, twoEB, codeBytes, rawPayload, &cur[j])
					i += nx - 1
				}
			}
		}
		rawPos += countEscapes(codeBytes[2*(p0+hy*nx) : 2*(p0+s0)])
	}
	return rawPos, nil
}

// The steady bodies below are written out for four rows in flight.
const _ = uint(rowGroup-4) + uint(4-rowGroup)

// planeSteady runs steps [rowGroup, hx) of a full row group whose first row
// starts at code index g: the steps where all rowGroup rows are in flight, row
// j at column x = t-j. It is the group loop of reconstructPlane with every
// stencil neighbor but the row above's newest sample carried in a register.
//
// Within a step the rows go bottom-up, so row j reads row j-1's carries
// before row j-1 advances: row j-1's newest reconstruction is then its column
// x (the up neighbor) and the one before its column x-1 (up-left), and row
// j's own newest is its column x-1 (left). Row 0's up neighbors come from
// the row above the group, fully decoded: one load per step, the previous
// one carried. Each carry is float64 of the float32 the kernel stored — the
// value the group loop reloads — and the terms are summed in the same order
// from the same 0.0, so every point's prediction and reconstruction are
// bit-identical to reconstructPlane's own loop.
func planeSteady(data []float32, g, nx, hx int, twoEB float64, codeBytes, rawPayload []byte, cur *[rowGroup]int) {
	m := hx - rowGroup
	// Row j's point at step rowGroup+s is o_j+s; the row above is at oa+s.
	o0, o1, o2, o3 := g+rowGroup, g+nx+rowGroup-1, g+2*nx+rowGroup-2, g+3*nx+rowGroup-3
	oa := o0 - nx
	ua := data[oa : oa+m]
	d0, d1, d2, d3 := data[o0:o0+m], data[o1:o1+m], data[o2:o2+m], data[o3:o3+m]
	c0, c1, c2, c3 := codeBytes[2*o0:2*(o0+m)], codeBytes[2*o1:2*(o1+m)], codeBytes[2*o2:2*(o2+m)], codeBytes[2*o3:2*(o3+m)]
	// rJ is row J's newest reconstruction, rrJ the one before; ra is the row
	// above's sample at row 0's column x-1.
	ra := float64(data[oa-1])
	r0, rr0 := float64(data[o0-1]), float64(data[o0-2])
	r1, rr1 := float64(data[o1-1]), float64(data[o1-2])
	r2, rr2 := float64(data[o2-1]), float64(data[o2-2])
	r3 := float64(data[o3-1])
	pos0, pos1, pos2, pos3 := cur[0], cur[1], cur[2], cur[3]
	var v float32
	for s := range d0 {
		p := 0.0
		p += r2
		p += r3
		p -= rr2
		v, pos3 = decValue(c3, s, p, twoEB, rawPayload, pos3)
		d3[s], r3 = v, float64(v)

		p = 0.0
		p += r1
		p += r2
		p -= rr1
		v, pos2 = decValue(c2, s, p, twoEB, rawPayload, pos2)
		d2[s], rr2, r2 = v, r2, float64(v)

		p = 0.0
		p += r0
		p += r1
		p -= rr0
		v, pos1 = decValue(c1, s, p, twoEB, rawPayload, pos1)
		d1[s], rr1, r1 = v, r1, float64(v)

		up := float64(ua[s])
		p = 0.0
		p += up
		p += r0
		p -= ra
		v, pos0 = decValue(c0, s, p, twoEB, rawPayload, pos0)
		d0[s], rr0, r0, ra = v, r0, float64(v), up
	}
	cur[0], cur[1], cur[2], cur[3] = pos0, pos1, pos2, pos3
}

// volumeSteady is planeSteady for the groups of reconstructVolume's later
// planes. Each row also carries the previous-plane samples under its two
// newest reconstructions, which it loaded at the two steps before, so a
// point loads one previous-plane sample and one code; row 0 loads the row
// above in both planes. The seven terms are added in lorenzo.predict's
// subset-mask order, as in reconstructVolume's own loop.
func volumeSteady(data []float32, g, s0, nx, hx int, twoEB float64, codeBytes, rawPayload []byte, cur *[rowGroup]int) {
	m := hx - rowGroup
	o0, o1, o2, o3 := g+rowGroup, g+nx+rowGroup-1, g+2*nx+rowGroup-2, g+3*nx+rowGroup-3
	oa := o0 - nx
	ua, za := data[oa:oa+m], data[oa-s0:][:m]
	d0, d1, d2, d3 := data[o0:o0+m], data[o1:o1+m], data[o2:o2+m], data[o3:o3+m]
	z0, z1, z2, z3 := data[o0-s0:][:m], data[o1-s0:][:m], data[o2-s0:][:m], data[o3-s0:][:m]
	c0, c1, c2, c3 := codeBytes[2*o0:2*(o0+m)], codeBytes[2*o1:2*(o1+m)], codeBytes[2*o2:2*(o2+m)], codeBytes[2*o3:2*(o3+m)]
	// qJ/qqJ are row J's previous-plane samples under rJ/rrJ; ra and qa are
	// the row above's samples at row 0's column x-1 in both planes.
	ra, qa := float64(data[oa-1]), float64(data[oa-s0-1])
	r0, rr0 := float64(data[o0-1]), float64(data[o0-2])
	r1, rr1 := float64(data[o1-1]), float64(data[o1-2])
	r2, rr2 := float64(data[o2-1]), float64(data[o2-2])
	r3 := float64(data[o3-1])
	q0, qq0 := float64(data[o0-s0-1]), float64(data[o0-s0-2])
	q1, qq1 := float64(data[o1-s0-1]), float64(data[o1-s0-2])
	q2, qq2 := float64(data[o2-s0-1]), float64(data[o2-s0-2])
	q3 := float64(data[o3-s0-1])
	pos0, pos1, pos2, pos3 := cur[0], cur[1], cur[2], cur[3]
	var v float32
	for s := range d0 {
		z := float64(z3[s])
		p := 0.0
		p += z
		p += r2
		p -= q2
		p += r3
		p -= q3
		p -= rr2
		p += qq2
		v, pos3 = decValue(c3, s, p, twoEB, rawPayload, pos3)
		d3[s], r3, q3 = v, float64(v), z

		z = float64(z2[s])
		p = 0.0
		p += z
		p += r1
		p -= q1
		p += r2
		p -= q2
		p -= rr1
		p += qq1
		v, pos2 = decValue(c2, s, p, twoEB, rawPayload, pos2)
		d2[s], rr2, r2, qq2, q2 = v, r2, float64(v), q2, z

		z = float64(z1[s])
		p = 0.0
		p += z
		p += r0
		p -= q0
		p += r1
		p -= q1
		p -= rr0
		p += qq0
		v, pos1 = decValue(c1, s, p, twoEB, rawPayload, pos1)
		d1[s], rr1, r1, qq1, q1 = v, r1, float64(v), q1, z

		z = float64(z0[s])
		up, zup := float64(ua[s]), float64(za[s])
		p = 0.0
		p += z
		p += up
		p -= zup
		p += r0
		p -= q0
		p -= ra
		p += qa
		v, pos0 = decValue(c0, s, p, twoEB, rawPayload, pos0)
		d0[s], rr0, r0, qq0, q0, ra, qa = v, r0, float64(v), q0, z, up, zup
	}
	cur[0], cur[1], cur[2], cur[3] = pos0, pos1, pos2, pos3
}
