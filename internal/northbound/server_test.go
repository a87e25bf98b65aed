package northbound_test

import (
	"bufio"
	"encoding/json"
	"flexran/internal/apps/broker"
	"flexran/internal/slice"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"flexran/internal/agent"
	"flexran/internal/controller"
	"flexran/internal/enb"
	"flexran/internal/lte"
	"flexran/internal/metrics"
	"flexran/internal/northbound"
	"flexran/internal/radio"
	"flexran/internal/transport"
)

// harness runs one master + one agent-enabled eNodeB over a simulated
// link, stepped continuously by a background driver goroutine, with the
// northbound server mounted on an httptest listener — the live-loopback
// setup the HTTP handlers are exercised against (RIB reads, watches and
// Do-queued actuation are all safe off the tick goroutine).
type harness struct {
	t      *testing.T
	master *controller.Master
	enb    *enb.ENB
	api    *httptest.Server
	ops    chan func() // run on the driver goroutine between steps
	stop   chan struct{}
	done   chan struct{}
}

func startHarness(t *testing.T, mods ...func(*northbound.Server)) *harness {
	t.Helper()
	e := enb.New(enb.Config{ID: 9, Seed: 1})
	a := agent.New(e, agent.Options{RequireSignedVSFs: true})
	opts := controller.DefaultOptions()
	opts.CmdRetryTTI = 2 // sequenced actuation, so /cmd/{seq} has outcomes
	m := controller.NewMaster(opts)
	aEp, mEp := transport.NewSimPair(transport.Netem{}, transport.Netem{})
	sess := m.HandleAgentSession(mEp.Send)
	a.Connect(aEp.Send)

	nb := northbound.New(m, nil)
	for _, mod := range mods {
		mod(nb)
	}
	h := &harness{
		t: t, master: m, enb: e,
		api:  httptest.NewServer(nb),
		ops:  make(chan func()),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	step := func() {
		sf := e.Now()
		msgs := mEp.AdvanceTo(sf)
		sess.Deliver(msgs...)
		m.Tick()
		msgs = aEp.AdvanceTo(sf)
		for _, msg := range msgs {
			a.Deliver(msg)
		}
		e.Step()
	}
	go func() {
		defer close(h.done)
		for {
			select {
			case <-h.stop:
				return
			case op := <-h.ops:
				op()
			default:
				step()
			}
		}
	}()
	t.Cleanup(func() {
		close(h.stop)
		<-h.done
		h.api.Close()
	})
	return h
}

// sync runs fn on the driver goroutine and waits for it — the whole
// master/agent/eNB/sim stack is single-threaded by design, so every test
// mutation of it must ride the driver loop.
func (h *harness) sync(fn func()) {
	h.t.Helper()
	done := make(chan struct{})
	h.ops <- func() { defer close(done); fn() }
	<-done
}

// attachUE adds a UE and waits for it to connect (the driver is stepping
// in the background) and for the master to have applied a report carrying
// it: the random-access event creates the UE's RIB record, zero-valued,
// a moment before the report that fills it, in the same master cycle, and
// an HTTP read can land in between.
func (h *harness) attachUE(imsi uint64) lte.RNTI {
	h.t.Helper()
	var rnti lte.RNTI
	var err error
	h.sync(func() {
		rnti, err = h.enb.AddUE(enb.UEParams{IMSI: imsi, Cell: 0, Channel: radio.Fixed(12)})
	})
	if err != nil {
		h.t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !h.connected(rnti) || !h.reported(rnti) {
		if time.Now().After(deadline) {
			h.t.Fatal("UE failed to attach")
		}
		time.Sleep(time.Millisecond)
	}
	return rnti
}

// reported reports whether the RIB holds statistics for the UE.
func (h *harness) reported(rnti lte.RNTI) bool {
	st, ok := h.master.RIB().UEStats(9, rnti)
	return ok && st.RNTI == rnti
}

// connected reads UE state on the driver goroutine.
func (h *harness) connected(rnti lte.RNTI) bool {
	var ok bool
	h.sync(func() { ok = h.enb.Connected(rnti) })
	return ok
}

func (h *harness) waitConnected() {
	h.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !h.master.RIB().Connected(9) {
		if time.Now().After(deadline) {
			h.t.Fatal("agent never connected")
		}
		time.Sleep(time.Millisecond)
	}
}

// getJSON fetches a path and decodes into v, requiring the given status.
func (h *harness) getJSON(path string, status int, v any) {
	h.t.Helper()
	resp, err := http.Get(h.api.URL + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		h.t.Fatalf("GET %s = %s, want %d", path, resp.Status, status)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			h.t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
}

// postJSON posts a body and decodes the response, requiring the status.
func (h *harness) postJSON(path string, body any, status int, v any) {
	h.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.Post(h.api.URL+path, "application/json", strings.NewReader(string(buf)))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		h.t.Fatalf("POST %s = %s, want %d", path, resp.Status, status)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			h.t.Fatalf("POST %s: decoding: %v", path, err)
		}
	}
}

func TestQueryEndpoints(t *testing.T) {
	h := startHarness(t)
	h.waitConnected()
	rnti := h.attachUE(1)

	var agents []northbound.AgentView
	h.getJSON("/rib/agents", http.StatusOK, &agents)
	if len(agents) != 1 || agents[0].ENB != 9 || !agents[0].Connected {
		t.Fatalf("/rib/agents = %+v", agents)
	}

	var ev northbound.ENBView
	h.getJSON("/rib/enb/9", http.StatusOK, &ev)
	if len(ev.Cells) != 1 || ev.Cells[0].PRB != 50 {
		t.Errorf("/rib/enb/9 cells = %+v", ev.Cells)
	}
	if len(ev.UEList) != 1 || ev.UEList[0].RNTI != rnti {
		t.Errorf("/rib/enb/9 ue_list = %+v", ev.UEList)
	}

	var uv northbound.UEView
	h.getJSON(fmt.Sprintf("/rib/enb/9/ue/%d", rnti), http.StatusOK, &uv)
	if uv.RNTI != rnti || uv.CQI != 12 {
		t.Errorf("/rib/enb/9/ue/%d = %+v", rnti, uv)
	}

	var hv northbound.HealthView
	h.getJSON("/health", http.StatusOK, &hv)
	if hv.Cycle == 0 || len(hv.Agents) != 1 {
		t.Errorf("/health = %+v", hv)
	}

	var infos []controller.AppInfo
	h.getJSON("/apps", http.StatusOK, &infos)
	if len(infos) != 0 {
		t.Errorf("/apps = %+v, want empty registry", infos)
	}

	// No LoopStats attached in this harness: the endpoint says so.
	h.getJSON("/stats/loop", http.StatusNotFound, nil)
	// Unknown records 404; malformed ids 400.
	h.getJSON("/rib/enb/77", http.StatusNotFound, nil)
	h.getJSON("/rib/enb/abc", http.StatusBadRequest, nil)
	h.getJSON("/rib/enb/9/ue/9999", http.StatusNotFound, nil)
	h.getJSON("/cmd/123456", http.StatusNotFound, nil)
	// A wait on a command never issued answers at once, not at the deadline.
	start := time.Now()
	h.getJSON("/cmd/123456?wait=1m", http.StatusNotFound, nil)
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("wait on an unissued command took %v", d)
	}
}

// TestLoopStatsEndpoint: with a LoopStats attached, /stats/loop serves its
// counters and all five legs under the documented keys, and nothing else.
func TestLoopStatsEndpoint(t *testing.T) {
	ls := &metrics.LoopStats{}
	ls.Account(10, 2)
	ls.Step.Observe(300 * time.Microsecond)
	api := httptest.NewServer(northbound.New(controller.NewMaster(controller.DefaultOptions()), ls))
	defer api.Close()
	resp, err := http.Get(api.URL + "/stats/loop")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats/loop = %s", resp.Status)
	}
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]json.RawMessage) string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	if got, want := keys(body), "apps,ingest,miss_rate,misses,report,rtt,step,ticks"; got != want {
		t.Fatalf("/stats/loop keys %s, want %s", got, want)
	}
	if string(body["ticks"]) != "10" || string(body["misses"]) != "2" {
		t.Errorf("ticks=%s misses=%s, want 10, 2", body["ticks"], body["misses"])
	}
	for _, leg := range []string{"step", "report", "ingest", "apps", "rtt"} {
		var lv map[string]json.RawMessage
		if err := json.Unmarshal(body[leg], &lv); err != nil {
			t.Fatalf("%s: %v", leg, err)
		}
		if got, want := keys(lv), "count,max_us,mean_us,p50_us,p999_us,p99_us"; got != want {
			t.Errorf("%s keys %s, want %s", leg, got, want)
		}
		wantCount := "0"
		if leg == "step" {
			wantCount = "1"
		}
		if string(lv["count"]) != wantCount {
			t.Errorf("%s count = %s, want %s", leg, lv["count"], wantCount)
		}
	}
}

func TestWatchStreamsEvents(t *testing.T) {
	h := startHarness(t)
	h.waitConnected()

	resp, err := http.Get(h.api.URL + "/watch?kinds=stats&enb=9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var evs []controller.WatchEvent
	for sc.Scan() && len(evs) < 3 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev controller.WatchEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	if len(evs) != 3 {
		t.Fatalf("streamed %d events: %v", len(evs), sc.Err())
	}
	var lastSeq uint64
	for _, ev := range evs {
		if ev.ENB != 9 || ev.Seq <= lastSeq {
			t.Errorf("event out of contract: %+v (prev seq %d)", ev, lastSeq)
		}
		lastSeq = ev.Seq
	}
}

// TestWatchBufferIsCapped: a ?buffer= above the cap is refused before
// anything subscribes. The subscriber queue is allocated up front, so an
// unchecked value is an allocation of the client's choosing.
func TestWatchBufferIsCapped(t *testing.T) {
	h := startHarness(t)
	h.waitConnected()
	h.getJSON("/watch?buffer=65537", http.StatusBadRequest, nil)

	// A watcher left registered by the refused request would have the master
	// number every event from then on. With none, the numbering starts when
	// the stream below subscribes.
	time.Sleep(50 * time.Millisecond)
	resp, err := http.Get(h.api.URL + "/watch?buffer=65536")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev controller.WatchEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		if ev.Seq > 10 {
			t.Errorf("first event has seq %d: a watcher was left registered by the refused request", ev.Seq)
		}
		return
	}
	t.Fatalf("stream ended without an event: %v", sc.Err())
}

// TestWatchStreamsAreCapped: the server holds at most MaxWatchStreams
// /watch streams open; the next is refused with 503 until one closes.
func TestWatchStreamsAreCapped(t *testing.T) {
	api := httptest.NewServer(northbound.New(controller.NewMaster(controller.DefaultOptions()), nil))
	defer api.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	get := func() *http.Response {
		t.Helper()
		resp, err := client.Get(api.URL + "/watch")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	var open []*http.Response
	defer func() {
		for _, resp := range open {
			resp.Body.Close()
		}
	}()
	for range northbound.MaxWatchStreams {
		resp := get()
		open = append(open, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: %s", len(open), resp.Status)
		}
	}
	resp := get()
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream %d: %s, want 503", northbound.MaxWatchStreams+1, resp.Status)
	}

	// A closed stream frees its place once its handler sees the client go.
	open[0].Body.Close()
	open = open[1:]
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := get()
		if resp.StatusCode == http.StatusOK {
			open = append(open, resp)
			return
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("no stream admitted after one closed: %s", resp.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestActuationRoundTrip(t *testing.T) {
	h := startHarness(t)
	h.waitConnected()

	// Activate the preloaded slicing VSF, then set its shares — the CI
	// smoke sequence, in-process.
	var r struct {
		Seq uint64 `json:"seq"`
	}
	h.postJSON("/vsf", map[string]any{"enb": 9, "name": "slice-rr"}, http.StatusOK, &r)
	if r.Seq == 0 {
		t.Fatal("activation assigned no sequence number")
	}
	var out controller.CmdOutcome
	h.getJSON(fmt.Sprintf("/cmd/%d?wait=5s", r.Seq), http.StatusOK, &out)
	if !out.OK {
		t.Fatalf("activation outcome = %+v", out)
	}

	h.postJSON("/slice-shares", map[string]any{
		"enb": 9, "shares": []float64{0.7, 0.3},
	}, http.StatusOK, &r)
	h.getJSON(fmt.Sprintf("/cmd/%d?wait=5s", r.Seq), http.StatusOK, &out)
	if !out.OK {
		t.Fatalf("share push outcome = %+v", out)
	}

	// Bad inputs are rejected before touching the master.
	h.postJSON("/slice-shares", map[string]any{"enb": 9}, http.StatusBadRequest, nil)
	h.postJSON("/policy", map[string]any{"doc": "x"}, http.StatusBadRequest, nil)
	h.postJSON("/handover", map[string]any{"enb": 9, "rnti": 1}, http.StatusBadRequest, nil)
	// Unknown agent: the command path reports the session error.
	h.postJSON("/policy", map[string]any{"enb": 55, "doc": "mac:\n"}, http.StatusBadGateway, nil)
}

// reqJSON issues an arbitrary-method request with an optional JSON body,
// requiring the status (PUT/DELETE counterpart of getJSON/postJSON).
func (h *harness) reqJSON(method, path string, body any, status int, v any) {
	h.t.Helper()
	var rd *strings.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			h.t.Fatal(err)
		}
		rd = strings.NewReader(string(buf))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, h.api.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		h.t.Fatalf("%s %s = %s, want %d", method, path, resp.Status, status)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			h.t.Fatalf("%s %s: decoding: %v", method, path, err)
		}
	}
}

// TestSlicesResource exercises the /slices resource model end to end:
// list, upsert, fetch, policy conflicts and removal, all against a live
// broker on the tick goroutine.
func TestSlicesResource(t *testing.T) {
	b, err := broker.New(broker.Config{EpochTTI: 50},
		slice.Spec{Name: "gold", Group: 0, Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := startHarness(t, func(s *northbound.Server) { s.AttachSlices(b) })
	h.sync(func() { h.master.Register(b, 10) })

	var views []northbound.SliceView
	h.getJSON("/slices", http.StatusOK, &views)
	if len(views) != 1 || views[0].Spec.Name != "gold" {
		t.Fatalf("initial /slices = %+v", views)
	}

	// Upsert a second slice and fetch it by name.
	h.reqJSON("PUT", "/slices", slice.Spec{Name: "silver", Group: 1}, http.StatusOK, nil)
	var view northbound.SliceView
	h.getJSON("/slices/silver", http.StatusOK, &view)
	if view.Spec.Group != 1 {
		t.Fatalf("/slices/silver = %+v", view)
	}

	// A malformed spec is a 400; a group collision is a 409.
	h.reqJSON("PUT", "/slices", map[string]any{"group": 2}, http.StatusBadRequest, nil)
	h.reqJSON("PUT", "/slices", slice.Spec{Name: "clash", Group: 1}, http.StatusConflict, nil)

	// Remove silver; the second delete is a 404.
	h.reqJSON("DELETE", "/slices/silver", nil, http.StatusOK, nil)
	h.reqJSON("DELETE", "/slices/silver", nil, http.StatusNotFound, nil)
	h.getJSON("/slices/silver", http.StatusNotFound, nil)

	// Without a registry attached the resources answer 503.
	bare := httptest.NewServer(northbound.New(h.master, nil))
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/slices")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unattached /slices = %s, want 503", resp.Status)
	}
}
