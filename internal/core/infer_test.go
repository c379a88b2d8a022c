package core

import (
	"math"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// validRangeField returns a 16³ field; constant fields exercise the CA
// clamp (zero non-constant blocks), varied ones the ordinary path.
func validRangeField(constant bool) *grid.Field {
	f := grid.MustNew("vr", 16, 16, 16)
	for i := range f.Data {
		if constant {
			f.Data[i] = 2.5
		} else {
			f.Data[i] = float32(i%97) * 3.5
		}
	}
	return f
}

// With CA disabled the range is the raw training hull, untouched by the
// field's content.
func TestValidRatioRangeCADisabled(t *testing.T) {
	fw := &Framework{
		cfg:     Config{UseCA: false},
		ratioLo: 5,
		ratioHi: 80,
	}
	lo, hi := fw.ValidRatioRange(validRangeField(true))
	if lo != 5 || hi != 80 {
		t.Fatalf("ValidRatioRange = (%g, %g), want (5, 80)", lo, hi)
	}
}

// An all-constant field drives the non-constant block ratio to its clamp
// (1/total blocks, never zero): the valid range scales up by the block count
// and must stay finite and ordered.
func TestValidRatioRangeAllConstantField(t *testing.T) {
	fw := &Framework{
		cfg:     Config{UseCA: true, Lambda: DefaultLambda, BlockSide: DefaultBlockSide},
		ratioLo: 5,
		ratioHi: 80,
	}
	f := validRangeField(true)
	r := NonConstantRatioParallel(f, DefaultBlockSide, DefaultLambda, 1)
	// 16³ field, 4³ blocks → 64 blocks, all constant → r clamps to 1/64.
	if want := 1.0 / 64; r != want {
		t.Fatalf("NonConstantRatioParallel = %g, want %g", r, want)
	}
	lo, hi := fw.ValidRatioRange(f)
	if math.IsInf(hi, 0) || math.IsNaN(lo) {
		t.Fatalf("range not finite: (%g, %g)", lo, hi)
	}
	if lo > hi {
		t.Fatalf("inverted range: (%g, %g)", lo, hi)
	}
	if wantLo, wantHi := 5*64.0, 80*64.0; lo != wantLo || hi != wantHi {
		t.Fatalf("ValidRatioRange = (%g, %g), want (%g, %g)", lo, hi, wantLo, wantHi)
	}
}

// A hull recorded inverted (possible in hand-built or legacy model files)
// must come back normalised: callers rely on lo <= hi.
func TestValidRatioRangeInvertedHull(t *testing.T) {
	fw := &Framework{
		cfg:     Config{UseCA: false},
		ratioLo: 80,
		ratioHi: 5,
	}
	lo, hi := fw.ValidRatioRange(validRangeField(false))
	if lo != 5 || hi != 80 {
		t.Fatalf("ValidRatioRange = (%g, %g), want normalised (5, 80)", lo, hi)
	}
	if lo > hi {
		t.Fatalf("inverted range survived normalisation: (%g, %g)", lo, hi)
	}
}
