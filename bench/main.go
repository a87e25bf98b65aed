// bench is the repository's benchmark: one closed-loop, fixed-work driver
// for the control loop and every TTI layer. See README.md.
//
//	go run -C bench .                                  every workload, 5 untraced repeats + 1 traced
//	go run -C bench . -workload tcp-loop -seed 2       one untraced run, contract result line last
//	go run -C bench . -workload tcp-loop -trace 1      the traced run: per-layer metrics, span file
//	go run -C bench . -compare a.json b.json           judge two result files
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// reference is the first full run on the reference host, kept so that the
// baseline can be measured again and compared (-compare takes this file).
//
//go:embed reference.json
var reference []byte

// header describes the host, the build and the settings of a result file.
type header struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workers    int                `json:"pinned_workers"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	TTIs       map[string]int     `json:"ttis"`
	WallS      map[string]float64 `json:"wall_s"`
	Started    string             `json:"started"`
	Reference  json.RawMessage    `json:"reference_medians,omitempty"`
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func newHeader(o runOpts) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: 1,
		Seed: o.seed, Seconds: o.seconds,
		TTIs: map[string]int{}, WallS: map[string]float64{},
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" { // go run does not stamp the build
		if out, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	for i := range workloads {
		h.TTIs[workloads[i].name], _ = workloads[i].ttis(o)
	}
	return h
}

// findRoot locates the repository root from the working directory, which
// is the root itself or (under go run -C bench) the bench directory.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "scenarios", "GOLDENS.txt")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("scenarios/GOLDENS.txt not found: run from the repository root or from bench/")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "run one workload once and end with the contract's result line (default: every workload, repeated)")
	seed := flag.Int64("seed", 1, "derives every channel seed, traffic rate and mobility path")
	seconds := flag.Int("seconds", defaultSeconds, "run length: the timed section is sized to take about this long on the reference host")
	trace := flag.Int("trace", 0, "1 runs the traced run (per-layer metrics, bench/out/trace-<workload>.json)")
	repeats := flag.Int("repeats", 5, "untraced repeats per workload in a full run")
	out := flag.String("out", "", "result file of a full run (default bench/out/result-seed<N>.json)")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	smoke := flag.Bool("smoke", false, "functional check: 200 TTIs per workload, no goldens")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *repeats < 1 {
		return errors.New("-seconds and -repeats must be at least 1, -trace 0 or 1")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	// Two processors at most, recorded in the header: the driver and the
	// connection readers of tcp-loop, and numbers that do not change with
	// the host's core count.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	o := runOpts{
		root: root, outDir: filepath.Join(root, "bench", "out"),
		seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke,
	}
	if !o.smoke {
		if err := checkGoldens(root); err != nil {
			return fmt.Errorf("correctness gate: %w", err)
		}
	}

	if *name != "" {
		wl := findWorkload(*name)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		res, err := runWorkload(wl, o)
		if err != nil {
			return err
		}
		printResult(res)
		return printContractLine(res)
	}
	return fullRun(o, *repeats, *out)
}

// fullRun measures every workload: repeats untraced runs and one traced
// run each, checks that state_digest repeats and that dense-sim and
// vanilla-sim delivered the same downlink bytes, and writes the result
// file -compare reads.
func fullRun(o runOpts, repeats int, out string) error {
	file := resultFile{Header: newHeader(o)}
	if json.Valid(reference) {
		file.Header.Reference = reference
	}
	failed := int64(0)
	warmDL := map[string]uint64{}
	for i := range workloads {
		wl := &workloads[i]
		digest := ""
		for r := 0; r <= repeats; r++ {
			o.trace = r == repeats
			res, err := runWorkload(wl, o)
			if err != nil {
				return err
			}
			printResult(res)
			file.Runs = append(file.Runs, res)
			file.Header.WallS[wl.name] += res.WallS
			failed += res.Failed
			// Traced and untraced runs do the same TTIs on the same
			// inputs, so even they must agree.
			if digest == "" {
				digest = res.StateDigest
			} else if res.StateDigest != digest {
				return fmt.Errorf("%s: state_digest %s on repeat %d, %s before: the run is not deterministic",
					wl.name, res.StateDigest, r+1, digest)
			}
			warmDL[wl.name] = res.WarmDLBytes
		}
	}
	if a, b := warmDL["dense-sim"], warmDL["vanilla-sim"]; a != b {
		return fmt.Errorf("transparency: dense-sim delivered %d downlink bytes %d TTIs into warm-up, vanilla-sim %d", a, checkpointTTIs, b)
	}
	if out == "" {
		out = filepath.Join(o.outDir, fmt.Sprintf("result-seed%d.json", o.seed))
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(&file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	printMedians(&file)
	fmt.Printf("wrote %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// printResult lists one run's metrics by name, with units.
func printResult(res *result) {
	mode := "untraced"
	if res.Trace == 1 {
		mode = "traced"
	}
	fmt.Printf("%s seed=%d %s ttis=%d tti_samples=%d wall=%.1fs attempted=%d failed=%d state_digest=%s\n",
		res.Workload, res.Seed, mode, res.TTIs, res.Samples, res.WallS, res.Attempted, res.Failed, res.StateDigest)
	for _, set := range []metricSet{res.Metrics, res.Extra} {
		for _, name := range slices.Sorted(maps.Keys(set)) {
			fmt.Printf("  %-34s %14.4f %s\n", name, set[name].Value, set[name].Unit)
		}
	}
}

// printContractLine ends the output with the one JSON object the driver
// parses: exactly correct, attempted, failed and metrics.
func printContractLine(res *result) error {
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
