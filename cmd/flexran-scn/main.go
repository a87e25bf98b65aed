// Command flexran-scn runs declarative scenarios (internal/scenario): it
// is the operational entry point of the scenario library in scenarios/
// and the regression gate CI drives on every push.
//
// Subcommands:
//
//	flexran-scn run [-workers N] [-json] [-out summary.json] file.yaml...
//	    Build and execute each scenario, print its summary and digest.
//
//	flexran-scn validate file.yaml...
//	    Parse + validate only; exit non-zero on the first error.
//
//	flexran-scn digest [-workers N] [-golden FILE] [-update] file.yaml...
//	    Execute and print "name digest" lines. With -golden, compare
//	    against the committed golden file and fail on any mismatch
//	    (the CI determinism/regression gate); with -update, rewrite it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"flexran/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "digest":
		err = cmdDigest(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "flexran-scn: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexran-scn: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  flexran-scn run      [-workers N] [-json] [-out FILE] scenario.yaml...
  flexran-scn validate scenario.yaml...
  flexran-scn digest   [-workers N] [-golden FILE] [-update] scenario.yaml...
`)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workers := fs.Int("workers", 1, "TTI engine worker-pool size (1 = serial; N > 1 opts into the pool, same digests)")
	asJSON := fs.Bool("json", false, "print the summary as JSON")
	out := fs.String("out", "", "also write the JSON summaries to this file")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() == 0 {
		return fmt.Errorf("run: no scenario files given")
	}
	var summaries []scenario.Summary
	for _, path := range fs.Args() {
		sc, err := scenario.Load(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		res, err := sc.RunWorkers(*workers)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		summaries = append(summaries, res.Summary)
		if *asJSON {
			data, err := json.MarshalIndent(res.Summary, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(data))
		} else {
			printSummary(res.Summary)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(summaries, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func printSummary(s scenario.Summary) {
	fmt.Printf("scenario %s: %d eNBs, %d UEs, %d workers\n", s.Name, s.ENBs, s.UEs, s.Workers)
	fmt.Printf("  attach: %d/%d in %d TTIs (mean %.1f, max %d)\n",
		s.Attached, s.UEs, s.AttachTTIs, s.AttachMeanTTI, s.AttachMaxTTI)
	fmt.Printf("  run:    %d TTIs, %.2f Mb/s aggregate DL (%d B delivered, %d B dropped, %d HARQ retx)\n",
		s.RunTTIs, s.ThroughputMbps, s.DLDelivered, s.DLDropped, s.HARQRetx)
	const maxCellLines = 12
	for i, c := range s.Cells {
		if i == maxCellLines {
			fmt.Printf("  cell:   ... %d more cells elided\n", len(s.Cells)-maxCellLines)
			break
		}
		fmt.Printf("  cell:   eNB %d cell %d: %d UEs, %.2f Mb/s\n", c.ENB, c.Cell, c.UEs, c.Mbps)
	}
	for _, sl := range s.Slices {
		fmt.Printf("  slice:  group %d: %d UEs, %.2f Mb/s\n", sl.Group, sl.UEs, sl.Mbps)
	}
	if s.Handovers > 0 || s.PingPongs > 0 {
		fmt.Printf("  mobility: %d handovers, %d ping-pongs\n", s.Handovers, s.PingPongs)
	}
	if s.FaultsInjected > 0 {
		fmt.Printf("  faults: %d injected, %d agent downs, %d agent ups\n",
			s.FaultsInjected, s.AgentDowns, s.AgentUps)
	}
	if s.AgentDegraded > 0 || s.AgentRecovers > 0 {
		fmt.Printf("  health: %d downgrades, %d recoveries\n", s.AgentDegraded, s.AgentRecovers)
	}
	fmt.Printf("  digest: %s\n", s.Digest)
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() == 0 {
		return fmt.Errorf("validate: no scenario files given")
	}
	for _, path := range fs.Args() {
		sc, err := scenario.Load(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: ok (%s: %d eNBs, %d UE groups, %d apps, %d faults)\n",
			path, sc.Name, len(sc.ENBs), len(sc.UEs), len(sc.Apps), len(sc.Faults))
	}
	return nil
}

func cmdDigest(args []string) error {
	fs := flag.NewFlagSet("digest", flag.ExitOnError)
	workers := fs.Int("workers", 1, "TTI engine worker-pool size (1 = serial; N > 1 opts into the pool, same digests)")
	golden := fs.String("golden", "", "compare digests against this golden file")
	update := fs.Bool("update", false, "rewrite the golden file with computed digests")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() == 0 {
		return fmt.Errorf("digest: no scenario files given")
	}
	if *update && *golden == "" {
		return fmt.Errorf("digest: -update needs -golden FILE")
	}

	want := map[string]string{}
	if *golden != "" && !*update {
		var err error
		want, err = readGoldens(*golden)
		if err != nil {
			return err
		}
	}

	got := map[string]string{}
	var names []string
	for _, path := range fs.Args() {
		sc, err := scenario.Load(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		res, err := sc.RunWorkers(*workers)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if _, dup := got[sc.Name]; dup {
			return fmt.Errorf("%s: duplicate scenario name %q", path, sc.Name)
		}
		got[sc.Name] = res.Summary.Digest
		names = append(names, sc.Name)
		fmt.Printf("%-24s %s\n", sc.Name, res.Summary.Digest)
	}

	if *update {
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# Golden scenario digests — regenerate with:\n")
		b.WriteString("#   go run ./cmd/flexran-scn digest -golden scenarios/GOLDENS.txt -update scenarios/*.yaml\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(*golden, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d golden digests to %s\n", len(names), *golden)
		return nil
	}

	if *golden != "" {
		var failures []string
		for _, n := range names {
			w, ok := want[n]
			switch {
			case !ok:
				failures = append(failures, fmt.Sprintf("%s: no golden digest committed", n))
			case w != got[n]:
				failures = append(failures, fmt.Sprintf("%s: digest %s != golden %s", n, got[n], w))
			}
		}
		// A golden entry this run did not cover is stale only when no
		// scenario file beside the ones given declares it: digesting a
		// subset of the library against the full golden file is fine.
		beside := scenariosBeside(fs.Args())
		for n := range want {
			if _, ok := got[n]; !ok && !beside[n] {
				failures = append(failures, fmt.Sprintf("%s: golden entry has no scenario file", n))
			}
		}
		if len(failures) > 0 {
			sort.Strings(failures)
			return fmt.Errorf("digest mismatches:\n  %s", strings.Join(failures, "\n  "))
		}
		fmt.Printf("all %d digests match %s\n", len(names), *golden)
	}
	return nil
}

// scenariosBeside names every scenario declared by a .yaml file in the
// directories of the given paths (files that do not load declare nothing).
func scenariosBeside(paths []string) map[string]bool {
	names := map[string]bool{}
	dirs := map[string]bool{}
	for _, p := range paths {
		dir := filepath.Dir(p)
		if dirs[dir] {
			continue
		}
		dirs[dir] = true
		files, _ := filepath.Glob(filepath.Join(dir, "*.yaml")) //nolint:errcheck // the pattern is well-formed
		for _, f := range files {
			if sc, err := scenario.Load(f); err == nil {
				names[sc.Name] = true
			}
		}
	}
	return names
}

// readGoldens parses "name digest" lines, ignoring blanks and # comments.
func readGoldens(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"name digest\", got %q", path, i+1, line)
		}
		out[fields[0]] = fields[1]
	}
	return out, nil
}
