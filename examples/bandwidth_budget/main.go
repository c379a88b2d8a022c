// Bandwidth budget: an instrument (here an RTM-like seismic simulation)
// produces snapshots faster than the outgoing link can carry them. Each
// snapshot must be compressed to fit its transmission slot — a per-snapshot
// *minimum compression ratio* dictated by the link, exactly the
// materials-science use case of §III-B (LCLS-II/APS-U detectors behind a
// limited link need ratios of 10+).
//
// FXRZ picks the error bound per snapshot from features alone; the example
// also runs the FRaZ trial-and-error baseline to show what the decision
// would cost if the compressor had to run in the loop.
package main

import (
	"fmt"
	"log"
	"time"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/datagen"
)

const (
	linkBytesPerSec = 2e6             // 2 MB/s outgoing link
	slotDuration    = 2 * time.Second // one snapshot every 2 s
)

func main() {
	// Train on early snapshots of a small-scale run.
	training, err := datagen.RTMSnapshots("small", []int{40, 80, 120, 160, 200}, 10)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := fxrz.Train(fxrz.NewSZ(), training, fxrz.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The production run is bigger — different mesh, same physics.
	stream, err := datagen.RTMSnapshots("big", []int{120, 200, 280, 360}, 10)
	if err != nil {
		log.Fatal(err)
	}

	budget := int(linkBytesPerSec * slotDuration.Seconds())
	fmt.Printf("link budget: %d bytes per %v slot\n\n", budget, slotDuration)

	var sent, lateSlots int
	for _, snap := range stream {
		// The minimum ratio that fits the slot; clamp into the valid range.
		need := float64(snap.Bytes()) / float64(budget)
		lo, hi := fw.ValidRatioRange(snap)
		target := need
		if target < lo {
			target = lo
		}
		if target > hi {
			target = hi
		}

		blob, est, err := fw.CompressToRatio(snap, target)
		if err != nil {
			log.Fatal(err)
		}
		fits := len(blob) <= budget
		if !fits {
			lateSlots++
		}
		sent += len(blob)

		// What the same decision costs with trial-and-error search.
		fr, err := fxrz.SearchFRaZ(fxrz.NewSZ(), snap, target, 15)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-24s need ≥%5.1f:1  chose eb %.3g  sent %7d B (fits=%v)\n",
			snap.Name, need, est.Knob, len(blob), fits)
		fmt.Printf("%-24s FXRZ decision %8v   vs FRaZ search %8v (%d compressor runs)\n\n",
			"", est.AnalysisTime().Round(time.Microsecond), fr.SearchTime.Round(time.Microsecond), fr.CompressorRuns)
	}
	fmt.Printf("stream total: %d bytes across %d slots, %d over-budget slots\n", sent, len(stream), lateSlots)
}
