package scenario

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

// TestScale4096ENB runs the 100k-UE scale gate end to end and checks its
// digest against the committed golden. It is the slowest test in the repo
// (~10 s), so it steps aside under -short and under the race detector —
// CI runs it in the scenario matrix instead, where the budget is explicit.
func TestScale4096ENB(t *testing.T) {
	if testing.Short() {
		t.Skip("scale gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("scale gate skipped under -race")
	}
	doc, err := os.ReadFile("../../scenarios/scale-4096enb.yaml")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(string(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res, err := sc.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want := goldenDigest(t, "scale-4096enb")
	if res.Summary.Digest != want {
		t.Fatalf("digest %s, want golden %s", res.Summary.Digest, want)
	}
	if res.Summary.Attached < 100000 {
		t.Fatalf("only %d UEs attached; the gate is supposed to carry 100k+", res.Summary.Attached)
	}
}

// goldenDigest looks one scenario's digest up in the committed golden file.
func goldenDigest(t *testing.T, name string) string {
	t.Helper()
	f, err := os.Open("../../scenarios/GOLDENS.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			return fields[1]
		}
	}
	t.Fatalf("no golden digest for %q", name)
	return ""
}
