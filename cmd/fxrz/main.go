// Command fxrz is the command-line front end of the FXRZ framework: it
// generates synthetic scientific datasets, trains a fixed-ratio model, and
// compresses/decompresses fields toward a target compression ratio.
//
// Fields on disk use a tiny self-describing container: the header line
// "fxrzfield <name> <d0> [d1 ...]\n" followed by little-endian float32s.
//
//	fxrz gen   -app nyx -field baryon_density -config 1 -ts 1 -size 48 -o baryon.f32
//	fxrz est   -c sz -target 100 -train a.f32,b.f32 -in test.f32
//	fxrz pack  -c sz -target 100 -train a.f32,b.f32 -in test.f32 -o test.szc -index
//	fxrz unpack -in test.szc -o restored.f32
//	fxrz unpack -in test.szc -o slab.f32 -region 0:16,32:64,32:64
//	fxrz fraz  -c sz -target 100 -iters 15 -in test.f32
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux (-pprof flag)
	"os"
	"strings"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/archive"
	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// codecHelp is the -c flag's usage line, one name per row of the codec table.
var codecHelp = "compressor: " + strings.Join(codecs.Names(), " | ")

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "est":
		err = cmdEstimate(os.Args[2:], false)
	case "pack":
		err = cmdEstimate(os.Args[2:], true)
	case "unpack":
		err = cmdUnpack(os.Args[2:])
	case "fraz":
		err = cmdFRaZ(os.Args[2:])
	case "features":
		err = cmdFeatures(os.Args[2:])
	case "archive":
		err = cmdArchive(os.Args[2:])
	case "extract":
		err = cmdExtract(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fxrz:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fxrz <gen|train|est|pack|unpack|fraz|features> [flags]
  gen       generate a synthetic scientific field
  train     train a fixed-ratio model and save it to disk
  est       estimate the error-bound setting for a target ratio
  pack      estimate and compress toward a target ratio
  unpack    decompress a stream produced by pack
  fraz      run the FRaZ baseline search for comparison
  features  print the FXRZ data features of a field
  archive   compress many fields toward a target ratio into one archive
  extract   list or extract members of an archive`)
}

// obsOpts carries the observability flags shared by the heavy subcommands.
type obsOpts struct {
	jsonPath  string
	pprofAddr string
}

// addObsFlags registers -obs-json and -pprof on a subcommand's flag set.
func addObsFlags(fs *flag.FlagSet) *obsOpts {
	o := &obsOpts{}
	fs.StringVar(&o.jsonPath, "obs-json", "", "write an observability snapshot (JSON) to this file on exit")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	return o
}

// start enables recording when either flag was given and brings up the
// pprof/expvar endpoint. With neither flag the no-op recorder stays
// installed and the run pays nothing for the instrumentation.
func (o *obsOpts) start() error {
	if o.jsonPath == "" && o.pprofAddr == "" {
		return nil
	}
	obs.Enable()
	obs.Publish()
	if o.pprofAddr != "" {
		ln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "serving pprof on http://%s/debug/pprof/ and expvar on /debug/vars\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}
	return nil
}

// finish dumps the snapshot the -obs-json flag asked for.
func (o *obsOpts) finish() error {
	if o.jsonPath == "" {
		return nil
	}
	if err := obs.TakeSnapshot().WriteJSONFile(o.jsonPath); err != nil {
		return fmt.Errorf("obs-json: %w", err)
	}
	return nil
}

// checkParallelism rejects negative worker-pool sizes at flag-parse time:
// pool.Workers would silently treat them as "all cores", which is never what
// a negative value meant.
func checkParallelism(cmd string, p int) error {
	if p < 0 {
		return fmt.Errorf("%s: -parallelism must be >= 0 (0 = all cores, 1 = serial), got %d", cmd, p)
	}
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	app := fs.String("app", "nyx", "nyx | hurricane | qmcpack | rtm")
	field := fs.String("field", "baryon_density", "field name (app-specific)")
	config := fs.Int("config", 1, "simulation configuration")
	ts := fs.Int("ts", 1, "time step")
	size := fs.Int("size", 48, "base edge size")
	spin := fs.Int("spin", 0, "qmcpack spin channel")
	out := fs.String("o", "", "output path (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -o is required")
	}
	var f *fxrz.Field
	var err error
	switch *app {
	case "nyx":
		f, err = datagen.NyxField(*field, *config, *ts, *size)
	case "hurricane":
		f, err = datagen.HurricaneField(*field, *ts, *size)
	case "qmcpack":
		f, err = datagen.QMCPackField(*config, *spin, *size)
	case "rtm":
		var snaps []*fxrz.Field
		snaps, err = datagen.RTMSnapshots(*field, []int{*ts}, *size) // field: small|big
		if err == nil {
			f = snaps[0]
		}
	default:
		return fmt.Errorf("gen: unknown app %q", *app)
	}
	if err != nil {
		return err
	}
	if err := writeField(*out, f); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %v (%d samples, %.1f MB)\n", *out, f.Dims, f.Size(), float64(f.Bytes())/1e6)
	return nil
}

func loadTraining(list string) ([]*fxrz.Field, error) {
	if list == "" {
		return nil, fmt.Errorf("-train is required (comma-separated field files)")
	}
	var out []*fxrz.Field
	for _, p := range strings.Split(list, ",") {
		f, err := readField(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// cmdTrain trains a framework and saves the model for later est/pack runs.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	cname := fs.String("c", "sz", codecHelp)
	train := fs.String("train", "", "comma-separated training field files (required)")
	out := fs.String("o", "", "output model path (required)")
	stationary := fs.Int("stationary", 25, "stationary points per training field")
	parallelism := fs.Int("parallelism", 0, "worker pool size (0 = all cores, 1 = serial)")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := checkParallelism("train", *parallelism); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("train: -o is required")
	}
	if err := obsf.start(); err != nil {
		return err
	}
	c, err := fxrz.ByName(*cname)
	if err != nil {
		return err
	}
	fields, err := loadTraining(*train)
	if err != nil {
		return err
	}
	cfg := fxrz.DefaultConfig()
	cfg.StationaryPoints = *stationary
	cfg.Parallelism = *parallelism
	fw, err := fxrz.Train(c, fields, cfg)
	if err != nil {
		return err
	}
	w, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := fw.Save(w); err != nil {
		return err
	}
	st := fw.Stats()
	fmt.Printf("trained %s model on %d fields in %v (%d samples) -> %s\n",
		*cname, st.FieldsTrained, st.Total().Round(1e6), st.Samples, *out)
	return obsf.finish()
}

func cmdEstimate(args []string, pack bool) error {
	name := "est"
	if pack {
		name = "pack"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	cname := fs.String("c", "sz", codecHelp)
	target := fs.Float64("target", 0, "target compression ratio (required)")
	train := fs.String("train", "", "comma-separated training field files")
	model := fs.String("model", "", "trained model file (alternative to -train)")
	in := fs.String("in", "", "input field file (required)")
	out := fs.String("o", "", "output stream path (pack only)")
	index := fs.Bool("index", false, "wrap the stream with a region-decode index (pack only; enables fast unpack -region)")
	stationary := fs.Int("stationary", 25, "stationary points per training field")
	parallelism := fs.Int("parallelism", 0, "worker pool size (0 = all cores, 1 = serial)")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := checkParallelism(name, *parallelism); err != nil {
		return err
	}
	if *target <= 0 || *in == "" {
		return fmt.Errorf("%s: -target and -in are required", name)
	}
	if err := obsf.start(); err != nil {
		return err
	}
	f, err := readField(*in)
	if err != nil {
		return err
	}
	var fw *fxrz.Framework
	if *model != "" {
		r, err := os.Open(*model)
		if err != nil {
			return err
		}
		fw, err = fxrz.Load(r)
		r.Close()
		if err != nil {
			return err
		}
		fw = fw.WithParallelism(*parallelism)
		fmt.Printf("loaded %s model from %s\n", fw.Compressor().Name(), *model)
	} else {
		c, err := fxrz.ByName(*cname)
		if err != nil {
			return err
		}
		fields, err := loadTraining(*train)
		if err != nil {
			return err
		}
		cfg := fxrz.DefaultConfig()
		cfg.StationaryPoints = *stationary
		cfg.Parallelism = *parallelism
		fw, err = fxrz.Train(c, fields, cfg)
		if err != nil {
			return err
		}
		st := fw.Stats()
		fmt.Printf("trained on %d fields in %v (%d samples; sweep %v)\n",
			st.FieldsTrained, st.Total().Round(1e6), st.Samples, st.StationarySweep.Round(1e6))
	}
	// The estimate carries the valid range, so one analysis prints both lines.
	printRange := func(est fxrz.Estimate) {
		fmt.Printf("valid target-ratio range for %s: [%.1f, %.1f]\n", f.Name, est.ValidRange[0], est.ValidRange[1])
	}
	if !pack {
		est, err := fw.EstimateConfig(f, *target)
		if err != nil {
			return err
		}
		printRange(est)
		fmt.Printf("estimated knob: %g (analysis %v, ACR %.2f, R %.3f, extrapolating=%v)\n",
			est.Knob, est.AnalysisTime().Round(1e3), est.AdjustedRatio, est.NonConstantR, est.Extrapolating)
		return obsf.finish()
	}
	if *out == "" {
		return fmt.Errorf("pack: -o is required")
	}
	blob, est, err := fw.CompressToRatio(f, *target)
	if err != nil {
		return err
	}
	printRange(est)
	if *index {
		if blob, err = fxrz.IndexBlob(blob); err != nil {
			return err
		}
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	mcr := fxrz.Ratio(f, blob)
	fmt.Printf("packed %s -> %s: knob %g, target %.1f, achieved %.1f (err %.1f%%)\n",
		*in, *out, est.Knob, *target, mcr, 100*math.Abs(mcr-*target)/(*target))
	return obsf.finish()
}

func cmdUnpack(args []string) error {
	fs := flag.NewFlagSet("unpack", flag.ExitOnError)
	in := fs.String("in", "", "input stream (required)")
	out := fs.String("o", "", "output field file (required)")
	region := fs.String("region", "", "decode only this subvolume, as half-open ranges lo0:hi0,lo1:hi1,... (slowest dim first)")
	parallelism := fs.Int("parallelism", 0, "worker pool size (0 = all cores, 1 = serial)")
	fs.Parse(args)
	if err := checkParallelism("unpack", *parallelism); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("unpack: -in and -o are required")
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	var f *fxrz.Field
	if *region != "" {
		lo, hi, err := fxrz.ParseRegion(*region)
		if err != nil {
			return fmt.Errorf("unpack: %w", err)
		}
		f, err = fxrz.DecompressRegionParallel(blob, lo, hi, *parallelism)
		if err != nil {
			return fmt.Errorf("unpack: region %s: %w", *region, err)
		}
		if err := writeField(*out, f); err != nil {
			return err
		}
		fmt.Printf("unpacked %s [%s] -> %s: %v\n", *in, *region, *out, f.Dims)
		return nil
	}
	f, err = fxrz.DecompressParallel(blob, *parallelism)
	if err != nil {
		return err
	}
	if err := writeField(*out, f); err != nil {
		return err
	}
	fmt.Printf("unpacked %s -> %s: %v\n", *in, *out, f.Dims)
	return nil
}

func cmdFRaZ(args []string) error {
	fs := flag.NewFlagSet("fraz", flag.ExitOnError)
	cname := fs.String("c", "sz", codecHelp)
	target := fs.Float64("target", 0, "target ratio (required)")
	iters := fs.Int("iters", 15, "max iterations per bin")
	in := fs.String("in", "", "input field file (required)")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if *target <= 0 || *in == "" {
		return fmt.Errorf("fraz: -target and -in are required")
	}
	if err := obsf.start(); err != nil {
		return err
	}
	c, err := fxrz.ByName(*cname)
	if err != nil {
		return err
	}
	f, err := readField(*in)
	if err != nil {
		return err
	}
	res, err := fxrz.SearchFRaZ(c, f, *target, *iters)
	if err != nil {
		return err
	}
	fmt.Printf("FRaZ: knob %g achieves %.1f (target %.1f) after %d compressor runs in %v\n",
		res.Knob, res.AchievedRatio, *target, res.CompressorRuns, res.SearchTime.Round(1e6))
	return obsf.finish()
}

func cmdFeatures(args []string) error {
	fs := flag.NewFlagSet("features", flag.ExitOnError)
	in := fs.String("in", "", "input field file (required)")
	stride := fs.Int("stride", 4, "sampling stride")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("features: -in is required")
	}
	if err := obsf.start(); err != nil {
		return err
	}
	f, err := readField(*in)
	if err != nil {
		return err
	}
	ft := fxrz.ExtractFeatures(f, *stride)
	fmt.Printf("%s %v (stride %d)\n", f.Name, f.Dims, *stride)
	fmt.Printf("  ValueRange   %g\n  MeanValue    %g\n  MND          %g\n  MLD          %g\n  MSD          %g\n",
		ft.ValueRange, ft.MeanValue, ft.MND, ft.MLD, ft.MSD)
	fmt.Printf("  gradients    mean %g  min %g  max %g\n", ft.MeanGradient, ft.MinGradient, ft.MaxGradient)
	return obsf.finish()
}

// writeField stores a field in the fxrzfield container format.
func writeField(path string, f *fxrz.Field) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fieldio.Write(w, f); err != nil {
		w.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return w.Close()
}

// readField loads a field from the fxrzfield container format.
func readField(path string) (*fxrz.Field, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	f, err := fieldio.Read(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// cmdArchive compresses a set of fields toward one target ratio into a
// single random-access archive, using a saved model.
func cmdArchive(args []string) error {
	fs := flag.NewFlagSet("archive", flag.ExitOnError)
	model := fs.String("model", "", "trained model file (required)")
	target := fs.Float64("target", 0, "campaign target compression ratio (required)")
	in := fs.String("in", "", "comma-separated field files (required)")
	out := fs.String("o", "", "output archive path (required)")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if *model == "" || *target <= 0 || *in == "" || *out == "" {
		return fmt.Errorf("archive: -model, -target, -in and -o are required")
	}
	if err := obsf.start(); err != nil {
		return err
	}
	mr, err := os.Open(*model)
	if err != nil {
		return err
	}
	fw, err := fxrz.Load(mr)
	mr.Close()
	if err != nil {
		return err
	}
	w, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	aw, err := archive.NewWriter(w)
	if err != nil {
		return err
	}
	var raw, packed int64
	for _, path := range strings.Split(*in, ",") {
		f, err := readField(strings.TrimSpace(path))
		if err != nil {
			return err
		}
		lo, hi := fw.ValidRatioRange(f)
		t := *target
		if t < lo {
			t = lo
		}
		if t > hi {
			t = hi
		}
		blob, est, err := fw.CompressToRatio(f, t)
		if err != nil {
			return err
		}
		if err := aw.Add(f.Name, blob, int64(f.Bytes())); err != nil {
			return err
		}
		raw += int64(f.Bytes())
		packed += int64(len(blob))
		fmt.Printf("  %-36s target %6.1f  knob %9.3g  %8d B\n", f.Name, t, est.Knob, len(blob))
	}
	if err := aw.Close(); err != nil {
		return err
	}
	fmt.Printf("archived %.2f MB into %.2f MB (overall ratio %.1f) -> %s\n",
		float64(raw)/1e6, float64(packed)/1e6, float64(raw)/float64(packed), *out)
	return obsf.finish()
}

// cmdExtract lists or extracts archive members.
func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	in := fs.String("in", "", "archive path (required)")
	name := fs.String("name", "", "member to extract (omit to list)")
	out := fs.String("o", "", "output field file (required with -name)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("extract: -in is required")
	}
	r, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	st, err := r.Stat()
	if err != nil {
		return err
	}
	ar, err := archive.OpenReader(r, st.Size())
	if err != nil {
		return err
	}
	if *name == "" {
		for _, e := range ar.List() {
			fmt.Printf("%-40s %10d B  ratio %6.1f\n", e.Name, e.Size, e.Ratio())
		}
		return nil
	}
	if *out == "" {
		return fmt.Errorf("extract: -o is required with -name")
	}
	f, err := ar.Field(*name)
	if err != nil {
		return err
	}
	if err := writeField(*out, f); err != nil {
		return err
	}
	fmt.Printf("extracted %s -> %s %v\n", *name, *out, f.Dims)
	return nil
}
