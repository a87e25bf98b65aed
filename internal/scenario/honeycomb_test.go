package scenario

import (
	"math"
	"reflect"
	"testing"
)

func parseHC(t *testing.T, body string) *Scenario {
	t.Helper()
	doc := `
name: hc
run:
  ttis: 10
topology:
  honeycomb:
` + body + `
ues:
  - count: 1
    enb: 1
    imsi_base: 1
    channel:
      model: fixed
      cqi: 10
    traffic:
      - kind: cbr
        rate_kbps: 64
`
	sc, err := Parse(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return sc
}

func TestHoneycombRingCounts(t *testing.T) {
	// R complete rings hold 1 + 3R(R+1) sites.
	for rings, want := range map[int]int{0: 1, 1: 7, 2: 19, 3: 37} {
		sc := parseHC(t, "    rings: "+itoa(rings))
		if len(sc.ENBs) != want {
			t.Errorf("rings=%d: %d eNodeBs, want %d", rings, len(sc.ENBs), want)
		}
	}
	// The ring limit is the largest honeycomb inside the eNodeB limit.
	if sc := parseHC(t, "    rings: "+itoa(maxRings)); len(sc.ENBs) > maxENBs || 1+3*(maxRings+1)*(maxRings+2) <= maxENBs {
		t.Errorf("maxRings=%d yields %d eNodeBs against maxENBs=%d", maxRings, len(sc.ENBs), maxENBs)
	}
	// An explicit count truncates the spiral mid-ring.
	sc := parseHC(t, "    enbs: 10")
	if len(sc.ENBs) != 10 {
		t.Fatalf("enbs=10: got %d eNodeBs", len(sc.ENBs))
	}
	for i, d := range sc.ENBs {
		if int(d.ID) != i+1 {
			t.Fatalf("eNodeB %d has id %d, want %d", i, d.ID, i+1)
		}
		if d.Seed != 1+int64(i) {
			t.Fatalf("eNodeB %d has seed %d, want %d", i, d.Seed, 1+int64(i))
		}
		if !d.HasSite || !d.Agent {
			t.Fatalf("eNodeB %d must be an agent with a radio-map site: %+v", i, d)
		}
	}
}

func TestHoneycombSitePositions(t *testing.T) {
	const pitch = 800.0
	sc := parseHC(t, "    rings: 1\n    pitch_m: 800")
	c := sc.ENBs[0]
	if c.X != 0 || c.Y != 0 {
		t.Fatalf("centre site at (%g, %g), want origin", c.X, c.Y)
	}
	seen := map[[2]int]bool{}
	for _, d := range sc.ENBs[1:] {
		r := math.Hypot(d.X-c.X, d.Y-c.Y)
		if math.Abs(r-pitch) > 1e-9 {
			t.Errorf("ring-1 site %d at distance %g, want pitch %g", d.ID, r, pitch)
		}
		key := [2]int{int(math.Round(d.X)), int(math.Round(d.Y))}
		if seen[key] {
			t.Errorf("duplicate site position %v", key)
		}
		seen[key] = true
	}
	if len(seen) != 6 {
		t.Fatalf("ring 1 has %d distinct sites, want 6", len(seen))
	}
	// Sectored sites multiply carriers, not positions.
	sc3 := parseHC(t, "    rings: 1\n    sectors: 3")
	for _, d := range sc3.ENBs {
		if d.Cells != 3 {
			t.Fatalf("eNodeB %d has %d cells, want 3 sectors", d.ID, d.Cells)
		}
	}
}

func TestHoneycombDeterminism(t *testing.T) {
	a := parseHC(t, "    rings: 2\n    pitch_m: 650\n    seed_base: 9")
	b := parseHC(t, "    rings: 2\n    pitch_m: 650\n    seed_base: 9")
	if !reflect.DeepEqual(a.ENBs, b.ENBs) {
		t.Fatal("honeycomb expansion is not deterministic")
	}
}

func TestHoneycombSizeValidation(t *testing.T) {
	for _, body := range []string{
		"    pitch_m: 500",               // neither enbs nor rings
		"    enbs: 7\n    rings: 1",      // both
		"    enbs: 7\n    pitch_m: -1",   // bad pitch
		"    enbs: 7\n    bogus_knob: 1", // unknown knob
	} {
		doc := "name: x\nrun:\n  ttis: 1\ntopology:\n  honeycomb:\n" + body + "\n"
		if _, err := Parse(doc); err == nil {
			t.Errorf("expected parse error for honeycomb body %q", body)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
