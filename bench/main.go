// Command bench is FXRZ's one benchmark: four workloads, twelve end-to-end
// metrics, and a traced run that measures every layer from outside. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench -workload all -seed 1 -out r.json          # every end-to-end metric
//	go run ./bench -workload serve_small_mix -trace 1          # every per-layer metric
//	go run ./bench -workload all -repeat 10 -out a.json        # medians, quartiles, spread
//	go run ./bench compare a.json b.json                       # apply each metric's bound
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned when a run completed but some op failed or some
// output was wrong: the numbers were printed, the exit code says not to
// trust them.
var errIncorrect = errors.New("the run is not correct: at least one op failed")

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// box describes the machine a result file was recorded on.
type box struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
}

// resultFile is what -out writes and compare reads. A set is one pass over
// the requested workloads; -repeat K records K sets, seeds seed..seed+K-1.
type resultFile struct {
	Schema  string     `json:"schema"`
	Box     box        `json:"box"`
	Seconds float64    `json:"seconds"`
	Sets    [][]result `json:"sets"`
}

const schema = "fxrz-bench/1"

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return errors.New("usage: bench compare PARENT.json CHANGE.json")
		}
		return compare(args[1], args[2], stdout)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "workload seed: target ratios, tuple order and request order")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the measured phase of one run lasts")
	trace := fs.Int("trace", 0, "1: the traced run, printing every per-layer metric; 0: every end-to-end metric")
	out := fs.String("out", "", "write the results as JSON to this file")
	spansOut := fs.String("spans", "", "with -trace 1: write the benchmark-side spans as JSON to this file (FILE.<workload> when several run)")
	repeat := fs.Int("repeat", 1, "run this many sets, each on the next seed, and report medians and quartiles")
	smoke := fs.Bool("smoke", false, "tiny fields and models: exercises every code path in seconds, measures nothing")
	fault := fs.String("fault", "", "failure-path self-test: flip-blob, region-mismatch or force-429 must make the run fail")
	workDir := fs.String("workdir", ".bench_build", "directory for model files and child results, inside the checkout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive, -repeat at least 1, -trace 0 or 1")
	}
	switch *fault {
	case "", "flip-blob", "region-mismatch", "force-429":
	default:
		return fmt.Errorf("unknown -fault %q", *fault)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sc: fullScale(), fault: *fault, workDir: *workDir,
	}
	if *smoke {
		cfg.sc = smokeScale()
	}
	file := resultFile{Schema: schema, Box: thisBox(), Seconds: *seconds}

	if *workload != "all" && *repeat == 1 {
		r, spans, err := runOne(cfg)
		if err != nil {
			return err
		}
		printResult(stdout, r)
		file.Sets = [][]result{{r}}
		if err := writeOutputs(*out, *spansOut, file, spans); err != nil {
			return err
		}
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !r.Correct {
			for _, e := range r.Errors {
				fmt.Fprintln(stderr, "bench: failed op:", e)
			}
			return errIncorrect
		}
		return nil
	}

	// Several runs: each in a fresh process, as the acceptance driver runs
	// them, so peak memory and warm-up are per run. Sets alternate over the
	// workloads, so drift of the machine lands on all of them alike.
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	correct := true
	for set := 0; set < *repeat; set++ {
		var rs []result
		for _, name := range names {
			r, err := runChild(cfg, name, *seed+int64(set), *smoke, *spansOut, stderr)
			if err != nil {
				return err
			}
			correct = correct && r.Correct
			if *repeat == 1 {
				printResult(stdout, r)
			} else {
				fmt.Fprintf(stderr, "bench: set %d/%d %s seed %d: %d ops, %d failed\n", set+1, *repeat, name, r.Seed, r.Attempted, r.Failed)
			}
			rs = append(rs, r)
		}
		file.Sets = append(file.Sets, rs)
	}
	if *repeat > 1 {
		printSummary(stdout, file)
	}
	if err := writeOutputs(*out, "", file, nil); err != nil {
		return err
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// runOne runs one workload in this process.
func runOne(cfg runConfig) (result, []span, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	r, err := runEndToEnd(cfg)
	return r, nil, err
}

// runChild runs one workload in a fresh process of this same binary and
// reads its result file back.
func runChild(cfg runConfig, name string, seed int64, smoke bool, spansOut string, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.CreateTemp(cfg.workDir, "run-*.json")
	if err != nil {
		return result{}, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", trace, "-out", tmp.Name(), "-workdir", cfg.workDir}
	if smoke {
		args = append(args, "-smoke")
	}
	if spansOut != "" && cfg.trace {
		args = append(args, "-spans", spansOut+"."+name)
	}
	if cfg.fault != "" {
		args = append(args, "-fault", cfg.fault)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	runErr := cmd.Run() // waits for the child to exit
	var f resultFile
	b, err := os.ReadFile(tmp.Name())
	if err == nil {
		err = json.Unmarshal(b, &f)
	}
	if err != nil || len(f.Sets) != 1 || len(f.Sets[0]) != 1 {
		return result{}, fmt.Errorf("%s seed %d: child left no result (%v; exit: %v)", name, seed, err, runErr)
	}
	return f.Sets[0][0], nil
}

func writeOutputs(out, spansOut string, file resultFile, spans []span) error {
	if out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if spansOut != "" {
		b, err := json.Marshal(spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(spansOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printResult writes one line per metric: workload metric value unit.
func printResult(w io.Writer, r result) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "%s ops_attempted %d count\n%s ops_failed %d count\n", r.Workload, r.Attempted, r.Workload, r.Failed)
}

// thisBox reads the core count, CPU model and Go version results are
// recorded with.
func thisBox() box {
	b := box{NProc: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version()}
	if data, err := os.ReadFile(filepath.Join("/proc", "cpuinfo")); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				b.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return b
}
