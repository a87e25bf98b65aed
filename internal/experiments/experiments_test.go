package experiments

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexran/internal/protocol"
)

// Shape tests: each experiment must reproduce the paper's qualitative
// result (who wins, by roughly what factor, where crossovers fall).
// Scales are reduced so the suite stays fast; the cmd/flexran-exp binary
// runs the full durations.

const testScale = 0.25

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"delegation", "fig10", "fig11a", "fig11b", "fig12a", "fig12b",
		"fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9",
		"fig_gray", "fig_handover", "fig_resilience", "fig_slicing", "table2",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := Run("nope", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig6bTransparency(t *testing.T) {
	res, err := Run("fig6b", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig6bResult)
	// The paper's headline: FlexRAN is imperceptible to the UE. DL ~25,
	// UL ~8 Mb/s, equal within a few percent between configurations.
	if r.VanillaDL < 24 || r.VanillaDL > 29 {
		t.Errorf("vanilla DL = %.2f, want ~25-28", r.VanillaDL)
	}
	if math.Abs(r.VanillaDL-r.FlexDL)/r.VanillaDL > 0.03 {
		t.Errorf("DL differs: vanilla %.2f vs flexran %.2f", r.VanillaDL, r.FlexDL)
	}
	if math.Abs(r.VanillaUL-r.FlexUL)/r.VanillaUL > 0.03 {
		t.Errorf("UL differs: vanilla %.2f vs flexran %.2f", r.VanillaUL, r.FlexUL)
	}
	if r.VanillaUL < 7 || r.VanillaUL > 10 {
		t.Errorf("vanilla UL = %.2f, want ~8-9", r.VanillaUL)
	}
	if !strings.Contains(r.String(), "downlink") {
		t.Error("report rendering broken")
	}
}

func TestFig6aOverheadSmall(t *testing.T) {
	res, err := Run("fig6a", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig6aResult)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %+v", r.Rows)
	}
	// The agent adds overhead. In the paper it is ~2% relative because
	// OAI's PHY dominates the baseline; our abstracted data plane is so
	// cheap that the agent's per-TTI reporting dominates instead, so the
	// assertion is on absolute cost: the whole FlexRAN-enabled eNodeB
	// must consume well under one real CPU (here: <200 ms per simulated
	// second) — the deployability claim behind Fig. 6a.
	v, f := r.Row("vanilla/ue"), r.Row("flexran/ue")
	if v.CPUPerSec == 0 {
		t.Fatal("vanilla row missing")
	}
	if f.CPUPerSec <= v.CPUPerSec {
		t.Errorf("agent should add some overhead: %.2f vs %.2f ms/s", f.CPUPerSec, v.CPUPerSec)
	}
	if f.CPUPerSec > 200 {
		t.Errorf("flexran eNodeB costs %.2f ms per simulated second", f.CPUPerSec)
	}
}

func TestFig7aShape(t *testing.T) {
	res, err := Run("fig7a", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig7Result)
	stats := r.Mbps[protocol.CatStats]
	sync := r.Mbps[protocol.CatSync]
	mgmt := r.Mbps[protocol.CatManagement]
	if stats == nil || sync == nil {
		t.Fatalf("categories missing: %v", r.Mbps)
	}
	last := len(r.UECounts) - 1
	// Stats reporting dominates, management is negligible (paper Fig. 7a).
	if stats[last] <= sync[last] {
		t.Errorf("stats (%.2f) should dominate sync (%.2f)", stats[last], sync[last])
	}
	if mgmt != nil && mgmt[last] > stats[last]/10 {
		t.Errorf("management (%.2f) should be negligible vs stats (%.2f)", mgmt[last], stats[last])
	}
	// Overhead grows with UEs but sublinearly (aggregation): the per-UE
	// byte rate at 50 UEs is below that at 10 UEs.
	if stats[last] <= stats[0] {
		t.Errorf("stats rate should grow: %v", stats)
	}
	perUE10 := stats[0] / float64(r.UECounts[0])
	perUE50 := stats[last] / float64(r.UECounts[last])
	if perUE50 >= perUE10 {
		t.Errorf("stats growth not sublinear: %.3f/UE at 10, %.3f/UE at 50", perUE10, perUE50)
	}
}

func TestFig7bShape(t *testing.T) {
	resA, err := Run("fig7a", testScale)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Run("fig7b", testScale)
	if err != nil {
		t.Fatal(err)
	}
	a := resA.(*Fig7Result)
	b := resB.(*Fig7Result)
	cmds := b.Mbps[protocol.CatCommands]
	if cmds == nil {
		t.Fatalf("no command bytes: %v", b.Mbps)
	}
	last := len(b.UECounts) - 1
	// Master-to-agent is far below agent-to-master (paper: <4 vs ~100 Mb/s)
	// and dominated by scheduling commands.
	if b.Total(last) >= a.Total(last)/2.5 {
		t.Errorf("master->agent (%.2f) should be well below agent->master (%.2f)",
			b.Total(last), a.Total(last))
	}
	if cmds[last] < b.Mbps[protocol.CatManagement][last] {
		t.Error("commands should dominate management")
	}
	if cmds[last] <= cmds[0] {
		t.Errorf("command rate should grow with UEs: %v", cmds)
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Run("fig8", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig8Result)
	if len(r.CoreMs) != 4 {
		t.Fatalf("rows = %+v", r)
	}
	// Core (RIB updater) time grows with the number of agents, and the
	// cycle stays far below the 1 ms TTI (the master is lightweight).
	if r.CoreMs[3] <= r.CoreMs[0] {
		t.Errorf("core time should grow with agents: %v", r.CoreMs)
	}
	for i, c := range r.CoreMs {
		if c+r.AppsMs[i] > 0.9 {
			t.Errorf("cycle with %d agents uses %.2f ms of the 1 ms TTI",
				r.AgentCounts[i], c+r.AppsMs[i])
		}
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9 grid is slow")
	}
	res, err := Run("fig9", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig9Result)
	// Lower triangle (ahead < RTT): zero throughput, attach impossible.
	for _, cell := range [][2]int{{20, 8}, {30, 8}, {40, 16}, {60, 32}} {
		if got := r.At(cell[0], cell[1]); got > 0.5 {
			t.Errorf("RTT %d/ahead %d = %.2f Mb/s, want ~0 (missed deadlines)",
				cell[0], cell[1], got)
		}
	}
	// Upper region: scheduling works even at high RTT with enough ahead.
	if got := r.At(60, 64); got < 5 {
		t.Errorf("RTT 60/ahead 64 = %.2f Mb/s, want working", got)
	}
	// Throughput at zero RTT beats the high-RTT/high-ahead corner
	// (stale CQI and long-horizon decisions degrade gradually).
	if r.At(0, 4) <= r.At(60, 64) {
		t.Errorf("no gradual decay: %.2f at (0,4) vs %.2f at (60,64)",
			r.At(0, 4), r.At(60, 64))
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Run("fig10", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig10Result)
	// Ordering: uncoordinated < eICIC < optimized.
	if !(r.Uncoordinated < r.EICIC && r.EICIC < r.Optimized) {
		t.Fatalf("ordering broken: %s", r)
	}
	// Optimized roughly doubles the uncoordinated network throughput
	// (paper: "almost doubled"); accept 1.6x-3x.
	ratio := r.Optimized / r.Uncoordinated
	if ratio < 1.6 || ratio > 3.2 {
		t.Errorf("optimized/uncoordinated = %.2f, want ~2", ratio)
	}
	// Optimized improves on plain eICIC by tens of percent (paper: ~22%).
	gain := r.Optimized/r.EICIC - 1
	if gain < 0.10 || gain > 0.45 {
		t.Errorf("optimized gain over eICIC = %.1f%%, want ~22%%", gain*100)
	}
	// Small-cell throughput unchanged between eICIC modes (Fig. 10b).
	if math.Abs(r.SmallOptimized-r.SmallEICIC)/r.SmallEICIC > 0.1 {
		t.Errorf("small cell changed: %.2f vs %.2f", r.SmallOptimized, r.SmallEICIC)
	}
	// The macro gains the re-granted ABS capacity.
	if r.MacroOptimized <= r.MacroEICIC {
		t.Errorf("macro did not gain: %.2f vs %.2f", r.MacroOptimized, r.MacroEICIC)
	}
	if r.GrantedABS == 0 {
		t.Error("no ABS grants recorded")
	}
}

// Fig. 10 couples the two cells inside a subframe (the macro UEs see the
// small cell's same-subframe activity), so it depends on the engine
// stepping the small cell first: two runs give the same figure to the bit.
func TestFig10Deterministic(t *testing.T) {
	a, err := Run("fig10", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig10", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if *a.(*Fig10Result) != *b.(*Fig10Result) {
		t.Errorf("two fig10 runs differ:\n%s\n%s", a, b)
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Run("table2", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Table2Result)
	// TCP within 20% of the paper's measurements at every CQI.
	for cqi, paper := range r.Paper {
		tcp, sus := r.Row(cqi)
		if math.Abs(tcp-paper[0])/paper[0] > 0.2 {
			t.Errorf("CQI %d TCP = %.2f, paper %.2f", cqi, tcp, paper[0])
		}
		// Sustainable bitrate at or below the paper's (ladder-quantized).
		if sus > paper[1]+0.01 {
			t.Errorf("CQI %d sustainable = %.2f above paper's %.2f", cqi, sus, paper[1])
		}
		if sus < paper[1]*0.5 {
			t.Errorf("CQI %d sustainable = %.2f far below paper's %.2f", cqi, sus, paper[1])
		}
	}
	// The headline 4K point: CQI 10 sustains exactly 7.3 on the 4K ladder.
	if _, sus := r.Row(10); sus != 7.3 {
		t.Errorf("CQI 10 sustainable = %.2f, want 7.3", sus)
	}
}

func TestFig11aShape(t *testing.T) {
	res, err := Run("fig11a", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig11Result)
	// Neither player freezes; the default player underutilizes (stuck at
	// the lowest rung) while the assisted player adapts upward.
	if r.DefaultFreezes != 0 || r.AssistedFreezes != 0 {
		t.Errorf("freezes: default %d, assisted %d, want 0/0", r.DefaultFreezes, r.AssistedFreezes)
	}
	if r.DefaultPeakBitrate > 1.2 {
		t.Errorf("default peak = %.2f, want stuck at 1.2", r.DefaultPeakBitrate)
	}
	if r.AssistedPeakBitrate < 2.0 {
		t.Errorf("assisted peak = %.2f, want 2.0", r.AssistedPeakBitrate)
	}
	if r.AssistedMeanBitrate <= r.DefaultMeanBitrate {
		t.Errorf("assisted mean %.2f should beat default %.2f",
			r.AssistedMeanBitrate, r.DefaultMeanBitrate)
	}
}

func TestFig11bShape(t *testing.T) {
	res, err := Run("fig11b", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig11Result)
	// The default player overshoots to 19.6 and freezes; the assisted
	// player holds the sustainable 7.3 and never freezes.
	if r.DefaultPeakBitrate < 19.6 {
		t.Errorf("default peak = %.2f, want overshoot to 19.6", r.DefaultPeakBitrate)
	}
	if r.DefaultFreezes == 0 {
		t.Error("default player should freeze")
	}
	if r.AssistedFreezes != 0 {
		t.Errorf("assisted froze %d times", r.AssistedFreezes)
	}
	if r.AssistedPeakBitrate > 7.3 {
		t.Errorf("assisted peak = %.2f, want capped at 7.3", r.AssistedPeakBitrate)
	}
	if r.AssistedMeanBitrate < 4 {
		t.Errorf("assisted mean = %.2f, too low", r.AssistedMeanBitrate)
	}
}

func TestFig12aShape(t *testing.T) {
	res, err := Run("fig12a", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig12aResult)
	if len(r.MNO) != 3 {
		t.Fatalf("phases = %+v", r)
	}
	// Throughput tracks the configured shares phase by phase.
	for i, shares := range r.Shares {
		want := shares[0] / shares[1]
		got := r.MNO[i] / r.MVNO[i]
		if math.Abs(got-want)/want > 0.25 {
			t.Errorf("phase %d ratio = %.2f, want %.2f", i+1, got, want)
		}
	}
	// The reconfigurations flip the winner: MNO leads in phase 1 and 3,
	// MVNO in phase 2.
	if !(r.MNO[0] > r.MVNO[0] && r.MNO[1] < r.MVNO[1] && r.MNO[2] > r.MVNO[2]) {
		t.Errorf("share flips not reflected: %s", r)
	}
}

func TestFig12bShape(t *testing.T) {
	res, err := Run("fig12b", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*Fig12bResult)
	mno := r.MNOCDF.Quantile(0.5)
	prem := r.PremiumCDF.Quantile(0.5)
	sec := r.SecondaryCDF.Quantile(0.5)
	// Paper: premium (~450 kb/s) > MNO fair (~380) > secondary (<200).
	if !(prem > mno && mno > sec) {
		t.Errorf("ordering: premium %.0f, mno %.0f, secondary %.0f", prem, mno, sec)
	}
	// Fair policy: tight spread across MNO UEs.
	spread := r.MNOCDF.Quantile(0.9) - r.MNOCDF.Quantile(0.1)
	if spread/mno > 0.2 {
		t.Errorf("fair policy spread = %.0f around %.0f", spread, mno)
	}
	// Premium/secondary per-UE ratio ~ (0.7/9)/(0.3/6) = 1.56 in paper's
	// setup (450/200 = 2.25 with their rates); require premium >= 1.4x.
	if prem < 1.4*sec {
		t.Errorf("premium %.0f vs secondary %.0f, want >= 1.4x", prem, sec)
	}
}

func TestDelegationShape(t *testing.T) {
	res, err := Run("delegation", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*DelegationResult)
	if !r.PushAcked || r.PushBytes == 0 {
		t.Fatalf("push bookkeeping: %+v", r)
	}
	// Swapping at any frequency (down to every TTI) must not change
	// throughput versus the unswapped baseline (paper §5.4).
	base := r.Mbps[0]
	for i, p := range r.SwapPeriodsTTI {
		if math.Abs(r.Mbps[i]-base)/base > 0.02 {
			t.Errorf("swap period %d: %.2f Mb/s vs baseline %.2f", p, r.Mbps[i], base)
		}
	}
}

func TestFigHandoverShape(t *testing.T) {
	res, err := Run("fig_handover", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*FigHandoverResult)
	last := len(r.HysteresisDB) - 1
	// More hysteresis, fewer handovers: the sweep must be non-increasing
	// and strictly drop end to end.
	for i := 1; i < len(r.Handovers); i++ {
		if r.Handovers[i] > r.Handovers[i-1] {
			t.Errorf("handovers rose with hysteresis: %v", r.Handovers)
		}
	}
	if r.Handovers[0] == 0 {
		t.Fatal("no handovers at zero hysteresis; scenario inert")
	}
	if r.Handovers[last] >= r.Handovers[0] {
		t.Errorf("hysteresis had no effect: %v", r.Handovers)
	}
	// Ping-pongs exist at zero hysteresis and die out at 3+ dB.
	if r.PingPongs[0] == 0 {
		t.Error("no ping-pongs at zero hysteresis")
	}
	if r.Rate(2) >= r.Rate(0) {
		t.Errorf("ping-pong rate did not fall: %.2f at %g dB vs %.2f at %g dB",
			r.Rate(2), r.HysteresisDB[2], r.Rate(0), r.HysteresisDB[0])
	}
	// Nobody stranded at the moderate settings.
	if r.Stranded[0] != 0 || r.Stranded[2] != 0 {
		t.Errorf("stranded UEs: %v", r.Stranded)
	}
	if !strings.Contains(r.String(), "ping-pong") {
		t.Error("report rendering broken")
	}
}

func TestFigResilienceShape(t *testing.T) {
	res, err := Run("fig_resilience", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*FigResilienceResult)
	for i, d := range r.DelayTTI {
		// The resync pull always converges, and full state costs no more
		// than ~3 one-way trips (Hello, resync request, snapshot) plus a
		// couple of cycles of slack.
		bound := 3*d + 6
		if r.ResyncFull[i] < 0 || r.ResyncFull[i] > bound {
			t.Errorf("delay %d: resync full convergence = %d cycles, want <= %d",
				d, r.ResyncFull[i], bound)
		}
		// The baseline's report stream restores records but never the
		// identities: the RIB stays degraded without the snapshot.
		if r.BaselineRecord[i] < 0 {
			t.Errorf("delay %d: baseline records never converged", d)
		}
		if r.BaselineFull[i] >= 0 {
			t.Errorf("delay %d: baseline recovered identities (%d) without resync",
				d, r.BaselineFull[i])
		}
	}
	if !strings.Contains(r.String(), "never") {
		t.Error("report rendering broken")
	}
}

func TestFigGrayShape(t *testing.T) {
	res, err := Run("fig_gray", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*FigGrayResult)
	for i, budget := range r.SuspectTTI {
		// The monitor must catch the wedged agent within its staleness
		// budget plus the stats period and one health tick of slack.
		bound := budget + 20 + 10
		if r.DetectSuspect[i] < 0 || r.DetectSuspect[i] > bound {
			t.Errorf("budget %d: suspect after %d cycles, want (0, %d]", budget, r.DetectSuspect[i], bound)
		}
		if r.DetectDegraded[i] < 0 || r.DetectDegraded[i] > r.DetectSuspect[i] {
			t.Errorf("budget %d: degraded after %d, suspect after %d", budget, r.DetectDegraded[i], r.DetectSuspect[i])
		}
		// The echo responder keeps answering, so the pre-health liveness
		// check never fires: that is the gray failure.
		if r.DetectEchoOnly[i] >= 0 {
			t.Errorf("budget %d: echo-only liveness detected the stall at %d", budget, r.DetectEchoOnly[i])
		}
	}
	// 30% loss each way loses roughly half the unprotected commands but
	// none of the retransmitted ones.
	if r.NoRetryFailed == 0 {
		t.Error("no delivery failures without retransmission under 30% loss")
	}
	if r.RetryFailed != 0 {
		t.Errorf("%d commands lost despite retransmission", r.RetryFailed)
	}
	if !strings.Contains(r.String(), "suspect") {
		t.Error("report rendering broken")
	}
}

func TestFigSlicingShape(t *testing.T) {
	res, err := Run("fig_slicing", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*FigSlicingResult)
	if len(r.LoadKbps) < 3 || len(r.StaticViol) != len(r.LoadKbps) ||
		len(r.ElasticViol) != len(r.LoadKbps) || len(r.FloorKbps) != len(r.LoadKbps) {
		t.Fatalf("ragged sweep: %+v", r)
	}
	overloaded := 0
	for i, load := range r.LoadKbps {
		if r.StaticBulk[i] >= r.FloorKbps[i] {
			continue // static still meets the floor: not an overloaded point
		}
		overloaded++
		// The whole figure: wherever the static split breaks the floor,
		// the closed loop must violate strictly less and serve strictly
		// more, and must hold the bulk slice at (or within a hair of)
		// its floor.
		if r.ElasticViol[i] >= r.StaticViol[i] {
			t.Errorf("load %.0f: elastic viol %.2f not below static %.2f",
				load, r.ElasticViol[i], r.StaticViol[i])
		}
		if r.ElasticBulk[i] <= r.StaticBulk[i] {
			t.Errorf("load %.0f: elastic bulk %.0f not above static %.0f",
				load, r.ElasticBulk[i], r.StaticBulk[i])
		}
		if r.ElasticBulk[i] < 0.95*r.FloorKbps[i] {
			t.Errorf("load %.0f: elastic bulk %.0f misses floor %.0f",
				load, r.ElasticBulk[i], r.FloorKbps[i])
		}
	}
	if overloaded == 0 {
		t.Error("sweep never overloads the static split; the figure shows nothing")
	}
	if !strings.Contains(r.String(), "fig_slicing") {
		t.Error("report rendering broken")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/figures.txt from the current reports")

// TestRunAllRenders renders every experiment at scale 0.1 and pins each
// deterministic report by its FNV-64 digest in testdata/figures.txt. fig6a
// and fig8 print wall-clock CPU time and heap, so they are only rendered. A
// deliberate change to a figure is `go test ./internal/experiments -run
// TestRunAllRenders -update` plus a look at the reports that moved.
func TestRunAllRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is slow")
	}
	path := filepath.Join("testdata", "figures.txt")
	want := map[string]string{}
	if !*update {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			if id, sum, ok := strings.Cut(line, " "); ok {
				want[id] = sum
			}
		}
	}
	var out strings.Builder
	for _, id := range IDs() {
		if id == "fig9" || id == "fig11a" || id == "fig11b" {
			continue // covered individually; too slow to repeat here
		}
		res, err := Run(id, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		report := res.String()
		if report == "" || res.ID() != id {
			t.Errorf("experiment %s rendering broken", id)
		}
		if id == "fig6a" || id == "fig8" {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(report))
		sum := fmt.Sprintf("%016x", h.Sum64())
		fmt.Fprintf(&out, "%s %s\n", id, sum)
		if !*update && want[id] != sum {
			t.Errorf("%s: report digest %s, testdata/figures.txt has %q; report:\n%s", id, sum, want[id], report)
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
