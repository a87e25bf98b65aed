package scenario

import (
	"path/filepath"
	"reflect"
	"testing"
)

// sweepDoc composes most engine features — geo mobility with handovers,
// a traffic mix, slicing, apps and a fault script — into one compact
// world whose digest must be invariant across worker-pool sizes.
const sweepDoc = `
name: sweep
run:
  ttis: 2500
  attach_ttis: 500
  seed: 42
topology:
  enbs:
    - id: 1
      seed: 1
      x: 0
      power_dbm: 43
    - id: 2
      seed: 2
      x: 1000
      power_dbm: 43
slicing:
  - enb: all
    shares: [0.6, 0.4]
ues:
  - count: 2
    enb: 1
    imsi_base: 100
    group: 0
    mobility:
      model: waypoint
      path: [[350, 0], [750, 0]]
      speed_mps: 150
      speed_step_mps: 50
      ping_pong: true
    traffic:
      - kind: cbr
        share: 0.5
        rate_kbps: 400
      - kind: poisson
        share: 0.5
        mean_kbps: 200
        seed: 5
  - count: 2
    enb: 2
    imsi_base: 200
    group: 1
    placement:
      at: [1100, 50]
    traffic:
      - kind: full_buffer
apps:
  - kind: mobility
  - kind: monitor
    period_tti: 100
faults:
  - at: 600
    kind: link_cut
    enb: 2
  - at: 1200
    kind: link_restore
    enb: 2
  - at: 1800
    kind: agent_restart
    enb: 1
`

// TestDigestWorkerInvariance is the scenario engine's determinism gate:
// the same document must produce identical summaries (and digests) for
// every worker-pool size. This is the property that lets scenarios/
// goldens be computed once and compared at any -workers value in CI.
func TestDigestWorkerInvariance(t *testing.T) {
	sc, err := Parse(sweepDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var ref *Result
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := sc.RunWorkers(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Summary.Workers != workers {
			t.Fatalf("summary workers = %d, want %d", res.Summary.Workers, workers)
		}
		if ref == nil {
			ref = res
			if res.Summary.Digest == "" {
				t.Fatal("empty digest")
			}
			continue
		}
		if res.Summary.Digest != ref.Summary.Digest {
			t.Errorf("workers=%d digest %s != serial %s",
				workers, res.Summary.Digest, ref.Summary.Digest)
		}
		// The whole summary minus the worker count must match too.
		a, b := res.Summary, ref.Summary
		a.Workers, b.Workers = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("workers=%d summary diverges from serial:\n%+v\nvs\n%+v", workers, a, b)
		}
	}
	if ref.Summary.Handovers == 0 {
		t.Error("sweep scenario produced no handovers; it no longer covers mobility")
	}
	if ref.Summary.AgentDowns == 0 || ref.Summary.AgentUps == 0 {
		t.Error("sweep scenario produced no lifecycle events; it no longer covers resilience")
	}
	if len(ref.Summary.Slices) != 2 {
		t.Errorf("expected 2 slice aggregates, got %d", len(ref.Summary.Slices))
	}
}

// brokerDoc exercises the elastic slice broker end to end: two founding
// slices (one starved against an unattainable floor), a mid-run arrival
// that is admitted, and one that is rejected by policy.
const brokerDoc = `
name: broker-sweep
run:
  ttis: 1600
  attach_ttis: 200
  seed: 11
master:
  stats_period_tti: 2
topology:
  enbs:
    - id: 1
      seed: 1
slices:
  elastic: true
  epoch_ttis: 100
  specs:
    - name: gold
      group: 0
      weight: 2
      min_throughput_kbps: 500
    - name: silver
      group: 1
      min_throughput_kbps: 1000000
    - name: joiner
      group: 2
      arrive_at: 600
      min_throughput_kbps: 500
      admit_above: 0.05
      reject_below: 0.01
    - name: hopeless
      group: 3
      arrive_at: 900
      min_throughput_kbps: 1000000000
      admit_above: 0.9
      reject_below: 0.5
ues:
  - count: 2
    enb: 1
    imsi_base: 100
    group: 0
    channel:
      model: fixed
      cqi: 11
    traffic:
      - kind: cbr
        rate_kbps: 300
  - count: 2
    enb: 1
    imsi_base: 200
    group: 1
    channel:
      model: fixed
      cqi: 11
    traffic:
      - kind: full_buffer
  - count: 1
    enb: 1
    imsi_base: 300
    group: 2
    channel:
      model: fixed
      cqi: 11
    traffic:
      - kind: cbr
        rate_kbps: 300
`

// TestBrokerDigestWorkerInvariance extends the determinism gate to the
// slice broker: its epoch loop runs on the master tick, so its
// admissions, plans and SLA accounting must be bit-identical for every
// worker-pool size — that is what lets elastic-slicing ship a golden.
func TestBrokerDigestWorkerInvariance(t *testing.T) {
	sc, err := Parse(brokerDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var ref *Result
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := sc.RunWorkers(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Summary.Digest != ref.Summary.Digest {
			t.Errorf("workers=%d digest %s != serial %s",
				workers, res.Summary.Digest, ref.Summary.Digest)
		}
	}
	sum := ref.Summary
	if sum.BrokerEpochs == 0 || sum.BrokerApplied == 0 {
		t.Fatalf("broker idle: epochs=%d applied=%d", sum.BrokerEpochs, sum.BrokerApplied)
	}
	want := map[string]string{
		"gold": "admitted", "silver": "admitted",
		"joiner": "admitted", "hopeless": "rejected",
	}
	if len(sum.SliceSLA) != len(want) {
		t.Fatalf("SliceSLA has %d entries, want %d: %+v", len(sum.SliceSLA), len(want), sum.SliceSLA)
	}
	for _, st := range sum.SliceSLA {
		if st.Decision.String() != want[st.Name] {
			t.Errorf("%s decision = %v, want %s", st.Name, st.Decision, want[st.Name])
		}
	}
	for _, st := range sum.SliceSLA {
		if st.Name == "silver" && !st.Violating {
			t.Error("silver not violating its unattainable floor")
		}
		if st.Name == "gold" && st.Violating {
			t.Error("gold violating despite an attainable floor")
		}
	}
}

// idleDoc is built to make the idle fast-forward engine earn its keep:
// a honeycomb of mostly-quiet cells whose master issues no periodic work
// (all periods 0, no resync), with traffic that is bursty or windowed so
// every eNodeB spends long stretches with nothing to do.
const idleDoc = `
name: idle-sweep
run:
  ttis: 3000
  attach_ttis: 300
  seed: 7
master:
  stats_period_tti: 0
  sync_period_tti: 0
  echo_period_tti: 0
  no_resync: true
topology:
  honeycomb:
    rings: 1
    pitch_m: 900
ues:
  - count: 2
    enb: 1
    imsi_base: 100
    channel:
      model: fixed
      cqi: 12
    traffic:
      - kind: cbr
        rate_kbps: 200
        start_tti: 500
        stop_tti: 900
  - count: 2
    enb: 3
    imsi_base: 300
    channel:
      model: fixed
      cqi: 9
    traffic:
      - kind: onoff
        rate_kbps: 150
        on_tti: 50
        off_tti: 950
    uplink:
      - kind: cbr
        rate_kbps: 32
        start_tti: 1200
        stop_tti: 1400
  - count: 1
    enb: 5
    imsi_base: 500
    channel:
      model: fixed
      cqi: 14
    traffic:
      - kind: poisson
        mean_kbps: 8
        seed: 3
`

// TestFastForwardDigestInvariance is the skip engine's correctness gate:
// for every worker-pool size, running with idle fast-forward enabled
// (the default) and disabled must produce bit-identical digests — the
// engine's contract is that skipping is unobservable. Beside idleDoc,
// every library scenario but scale-4096enb (the scale gate's) must
// reproduce its golden digest, pinned with fast-forward on, with it off
// on the serial engine and on a 4-worker pool.
func TestFastForwardDigestInvariance(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 14 {
		t.Fatalf("found %d library scenarios, want 14", len(files))
	}
	for _, path := range files {
		if filepath.Base(path) == "scale-4096enb.yaml" {
			continue
		}
		sc, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenDigest(t, sc.Name)
		sc.Run.NoFastForward = true
		for _, workers := range []int{1, 4} {
			res, err := sc.RunWorkers(workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sc.Name, workers, err)
			}
			if res.Summary.Digest != want {
				t.Errorf("%s without fast-forward, workers=%d: digest %s, golden %s",
					sc.Name, workers, res.Summary.Digest, want)
			}
		}
	}

	sc, err := Parse(idleDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var ref *Result
	for _, noFF := range []bool{false, true} {
		sc.Run.NoFastForward = noFF
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := sc.RunWorkers(workers)
			if err != nil {
				t.Fatalf("noFF=%v workers=%d: %v", noFF, workers, err)
			}
			if ref == nil {
				ref = res
				if res.Summary.Digest == "" {
					t.Fatal("empty digest")
				}
				continue
			}
			if res.Summary.Digest != ref.Summary.Digest {
				t.Errorf("noFF=%v workers=%d digest %s != reference %s",
					noFF, workers, res.Summary.Digest, ref.Summary.Digest)
			}
		}
	}
	if ref.Summary.Attached == 0 {
		t.Fatal("idle scenario attached no UEs; it no longer exercises anything")
	}
	if ref.Summary.DLDelivered == 0 {
		t.Fatal("idle scenario delivered no traffic")
	}
}

// TestRebuildReproduces guards the "Scenario is purely declarative"
// contract: building and running the same Scenario value twice must give
// the same digest (generators/channels are freshly constructed each time).
func TestRebuildReproduces(t *testing.T) {
	sc, err := Parse(sweepDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	a, err := sc.RunWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.RunWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Digest != b.Summary.Digest {
		t.Fatalf("rebuild changed the digest: %s vs %s", a.Summary.Digest, b.Summary.Digest)
	}
}
