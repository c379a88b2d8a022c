//go:build race

package zfp

func init() { raceEnabled = true }
