// Package northbound opens the master controller to the outside world:
// an HTTP/JSON API exposing the RIB for reading, the controller's watch
// stream for live subscription, and the command path for actuation — the
// paper's northbound API (§4.3) lifted out of process.
//
// The server never touches master internals directly. Reads go through
// the RIB's snapshot/lock-free reader methods (safe from any goroutine);
// live updates ride the watch/event layer; actuation is enqueued through
// Master.Do, so commands execute on the tick goroutine in the application
// slot — sequence assignment stays serial and race-free no matter how
// many HTTP clients push concurrently.
package northbound

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"flexran/internal/apps/broker"
	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/metrics"
	"flexran/internal/slice"
)

// Server is the northbound HTTP API over one master controller.
type Server struct {
	m      *controller.Master
	ls     *metrics.LoopStats
	mux    *http.ServeMux
	slices *broker.Broker

	// streams counts the open /watch streams (see MaxWatchStreams).
	streams atomic.Int32
}

// New builds the API server. ls carries the real-time loop's deadline
// accounting for /stats/loop; nil is allowed (the endpoint then reports
// 404, as in virtual-time harnesses with no paced loop).
func New(m *controller.Master, ls *metrics.LoopStats) *Server {
	s := &Server{m: m, ls: ls, mux: http.NewServeMux()}

	s.mux.HandleFunc("GET /rib/agents", s.handleAgents)
	s.mux.HandleFunc("GET /rib/enb/{id}", s.handleENB)
	s.mux.HandleFunc("GET /rib/enb/{id}/ue/{rnti}", s.handleUE)
	s.mux.HandleFunc("GET /health", s.handleHealth)
	s.mux.HandleFunc("GET /stats/loop", s.handleLoop)
	s.mux.HandleFunc("GET /apps", s.handleApps)
	s.mux.HandleFunc("GET /cmd/{seq}", s.handleCmd)
	s.mux.HandleFunc("GET /watch", s.handleWatch)
	s.mux.HandleFunc("GET /slices", s.handleSlices)
	s.mux.HandleFunc("PUT /slices", s.handleSliceUpsert)
	s.mux.HandleFunc("GET /slices/{name}", s.handleSlice)
	s.mux.HandleFunc("DELETE /slices/{name}", s.handleSliceDelete)
	s.mux.HandleFunc("POST /slice-shares", s.handleShares)
	s.mux.HandleFunc("POST /vsf", s.handleVSF)
	s.mux.HandleFunc("POST /policy", s.handlePolicy)
	s.mux.HandleFunc("POST /handover", s.handleHandover)
	return s
}

// AttachSlices binds the slice broker to the /slices resources. Without
// one the endpoints answer 503 (the deployment runs no slice broker).
// Call before serving requests. The broker's state is owned by the tick
// goroutine: its mutating methods are reached only through Master.Do.
func (s *Server) AttachSlices(b *broker.Broker) { s.slices = b }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ---------------------------------------------------------------------------
// Views

// AgentView is the per-agent summary row of /rib/agents.
type AgentView struct {
	ENB       lte.ENBID              `json:"enb"`
	Connected bool                   `json:"connected"`
	Health    controller.HealthState `json:"health"`
	SF        lte.Subframe           `json:"sf"`
	UEs       int                    `json:"ues"`
}

// CellView merges a cell's static configuration with its latest stats.
type CellView struct {
	Cell     lte.CellID `json:"cell"`
	PRB      int        `json:"prb"`
	UsedPRB  uint32     `json:"used_prb"`
	TotalPRB uint32     `json:"total_prb"`
	ABS      bool       `json:"abs,omitempty"`
}

// ENBView is the full /rib/enb/{id} record.
type ENBView struct {
	AgentView
	Cells  []CellView      `json:"cells"`
	UEList []UESummaryView `json:"ue_list"`
}

// UESummaryView is one row of an eNodeB's UE list.
type UESummaryView struct {
	RNTI       lte.RNTI   `json:"rnti"`
	Cell       lte.CellID `json:"cell"`
	CQI        lte.CQI    `json:"cqi"`
	DLRateKbps uint32     `json:"dl_kbps"`
	ULRateKbps uint32     `json:"ul_kbps"`
}

// UEView is the full /rib/enb/{id}/ue/{rnti} record.
type UEView struct {
	UESummaryView
	IMSI       uint64    `json:"imsi,omitempty"`
	DLQueue    uint64    `json:"dl_queue"`
	ULQueue    uint64    `json:"ul_queue"`
	HARQRetx   uint32    `json:"harq_retx"`
	RSRPdBm    int32     `json:"rsrp_dbm"`
	RSRQdB     int32     `json:"rsrq_db"`
	SubbandCQI []uint8   `json:"subband_cqi,omitempty"`
	Meas       *MeasView `json:"meas,omitempty"`
}

// MeasView is the latest A3 measurement report of a UE.
type MeasView struct {
	SF        lte.Subframe   `json:"sf"`
	RSRPdBm   int32          `json:"serving_rsrp_dbm"`
	Neighbors []NeighborView `json:"neighbors"`
}

// NeighborView is one measured neighbour cell.
type NeighborView struct {
	ENB     lte.ENBID  `json:"enb"`
	Cell    lte.CellID `json:"cell"`
	RSRPdBm int32      `json:"rsrp_dbm"`
}

// HealthView is the /health summary.
type HealthView struct {
	Cycle  lte.Subframe `json:"cycle"`
	Agents []AgentView  `json:"agents"`
}

func (s *Server) agentView(enb lte.ENBID) AgentView {
	rib := s.m.RIB()
	sf, _ := rib.AgentSF(enb)
	return AgentView{
		ENB:       enb,
		Connected: rib.Connected(enb),
		Health:    rib.HealthOf(enb),
		SF:        sf,
		UEs:       rib.UECount(enb),
	}
}

// ---------------------------------------------------------------------------
// Query handlers

func (s *Server) handleAgents(w http.ResponseWriter, _ *http.Request) {
	ids := s.m.RIB().Agents()
	out := make([]AgentView, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.agentView(id))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleENB(w http.ResponseWriter, r *http.Request) {
	enb, ok := pathENB(w, r)
	if !ok {
		return
	}
	rib := s.m.RIB()
	cfg, ok := rib.AgentConfig(enb)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown eNodeB %d", enb))
		return
	}
	view := ENBView{AgentView: s.agentView(enb)}
	for _, c := range cfg.Cells {
		cv := CellView{Cell: c.Cell, PRB: c.Bandwidth.PRBs()}
		if st, ok := rib.CellStats(enb, c.Cell); ok {
			cv.UsedPRB, cv.TotalPRB, cv.ABS = st.UsedPRB, st.TotalPRB, st.ABS
		}
		view.Cells = append(view.Cells, cv)
	}
	for _, u := range rib.UEsOf(enb) {
		view.UEList = append(view.UEList, UESummaryView{
			RNTI: u.RNTI, Cell: u.Cell, CQI: u.CQI,
			DLRateKbps: u.DLRateKbps, ULRateKbps: u.ULRateKbps,
		})
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleUE(w http.ResponseWriter, r *http.Request) {
	enb, ok := pathENB(w, r)
	if !ok {
		return
	}
	rn, err := strconv.ParseUint(r.PathValue("rnti"), 10, 16)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad rnti: "+r.PathValue("rnti"))
		return
	}
	rnti := lte.RNTI(rn)
	rib := s.m.RIB()
	st, ok := rib.UEStats(enb, rnti)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no UE %d under eNodeB %d", rnti, enb))
		return
	}
	view := UEView{
		UESummaryView: UESummaryView{
			RNTI: st.RNTI, Cell: st.Cell, CQI: st.CQI,
			DLRateKbps: st.DLRateKbps, ULRateKbps: st.ULRateKbps,
		},
		DLQueue: st.DLQueue, ULQueue: st.ULQueue, HARQRetx: st.HARQRetx,
		RSRPdBm: st.RSRPdBm, RSRQdB: st.RSRQdB, SubbandCQI: st.SubbandCQI,
	}
	if cfg, ok := rib.UEConfigOf(enb, rnti); ok {
		view.IMSI = cfg.IMSI
	}
	if rep, sf, ok := rib.UEMeas(enb, rnti); ok {
		mv := &MeasView{SF: sf, RSRPdBm: rep.ServingRSRPdBm}
		for _, n := range rep.Neighbors {
			mv.Neighbors = append(mv.Neighbors, NeighborView{
				ENB: n.ENB, Cell: n.Cell, RSRPdBm: n.RSRPdBm,
			})
		}
		view.Meas = mv
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	ids := s.m.RIB().Agents()
	view := HealthView{Cycle: s.m.Cycle(), Agents: make([]AgentView, 0, len(ids))}
	for _, id := range ids {
		view.Agents = append(view.Agents, s.agentView(id))
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleLoop(w http.ResponseWriter, _ *http.Request) {
	if s.ls == nil {
		writeErr(w, http.StatusNotFound, "no loop stats attached (virtual-time master?)")
		return
	}
	writeJSON(w, http.StatusOK, s.ls.View())
}

func (s *Server) handleApps(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.AppInfos())
}

func (s *Server) handleCmd(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil || seq == 0 {
		writeErr(w, http.StatusBadRequest, "bad seq: "+r.PathValue("seq"))
		return
	}
	if wait := r.URL.Query().Get("wait"); wait != "" {
		d, err := time.ParseDuration(wait)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad wait duration: "+wait)
			return
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case o, ok := <-s.m.WaitCommand(seq):
			if ok {
				writeJSON(w, http.StatusOK, o)
				return
			}
		case <-t.C:
		case <-r.Context().Done():
		}
	} else if o, ok := s.m.CommandOutcome(seq); ok {
		writeJSON(w, http.StatusOK, o)
		return
	}
	writeErr(w, http.StatusNotFound, fmt.Sprintf("no outcome recorded for command %d (still in flight?)", seq))
}

// ---------------------------------------------------------------------------
// Watch (SSE)

// maxWatchBuffer caps ?buffer=: the subscriber queue is allocated up front,
// and at about 120 bytes an event, 65,536 of them is 8 MB.
const maxWatchBuffer = 1 << 16

// MaxWatchStreams caps the /watch streams one server holds open at once;
// the next one is answered 503. Each stream is a master subscriber that
// the control loop fills on every cycle, with a queue of up to
// maxWatchBuffer events, so the cap bounds both the loop's publish work
// and the queues' memory (at most 256 MB).
const MaxWatchStreams = 32

// handleWatch streams the controller's event layer as server-sent events:
// one `data:` frame per WatchEvent, JSON-encoded. The subscription honours
// ?enb= and ?kinds= filters (comma-separated kind names) and ?buffer= for
// the subscriber queue, at most maxWatchBuffer; at most MaxWatchStreams
// streams are open at once. A slow client overflows its buffer; the stream
// then emits a final `event: resync` frame and closes — the client
// re-reads the RIB and re-subscribes (the explicit resync contract; the
// controller never blocks on a slow reader).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var filter controller.WatchFilter
	q := r.URL.Query()
	if v := q.Get("enb"); v != "" {
		id, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad enb: "+v)
			return
		}
		filter.ENB = lte.ENBID(id)
	}
	kinds, err := controller.ParseWatchKinds(q.Get("kinds"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	filter.Kinds = kinds
	buffer := 0
	if v := q.Get("buffer"); v != "" {
		if buffer, err = strconv.Atoi(v); err != nil || buffer < 0 || buffer > maxWatchBuffer {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad buffer: %s (0 to %d)", v, maxWatchBuffer))
			return
		}
	}

	if s.streams.Add(1) > MaxWatchStreams {
		s.streams.Add(-1)
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Sprintf("too many watch streams (at most %d)", MaxWatchStreams))
		return
	}
	defer s.streams.Add(-1)

	sub := s.m.Watch(filter, buffer)
	defer sub.Cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.Events():
			if !open {
				if sub.Overflowed() {
					// The subscriber fell behind: signal the resync contract
					// before closing so the client knows the stream has a gap.
					fmt.Fprintf(w, "event: resync\ndata: {}\n\n")
					fl.Flush()
				}
				return
			}
			fmt.Fprintf(w, "data: ")
			if err := enc.Encode(ev); err != nil {
				return
			}
			fmt.Fprintf(w, "\n")
			fl.Flush()
		}
	}
}

// ---------------------------------------------------------------------------
// Slice resources

// SliceView pairs a slice's declarative spec with its live status — one
// /slices resource.
type SliceView struct {
	Spec   slice.Spec   `json:"spec"`
	Status slice.Status `json:"status"`
}

// doSlices runs fn on the tick goroutine (broker state is owned by the
// application slot) and waits for it.
func (s *Server) doSlices(r *http.Request, fn func(ctx *controller.Context) error) error {
	var err error
	done := s.m.Do(func(ctx *controller.Context) { err = fn(ctx) })
	select {
	case <-done:
		return err
	case <-r.Context().Done():
		return r.Context().Err()
	}
}

func (s *Server) requireSlices(w http.ResponseWriter) bool {
	if s.slices == nil {
		writeErr(w, http.StatusServiceUnavailable, "no slice broker attached")
		return false
	}
	return true
}

func (s *Server) handleSlices(w http.ResponseWriter, r *http.Request) {
	if !s.requireSlices(w) {
		return
	}
	var out []SliceView
	err := s.doSlices(r, func(*controller.Context) error {
		specs, sts := s.slices.Specs(), s.slices.Statuses()
		out = make([]SliceView, 0, len(specs))
		for i := range specs {
			out = append(out, SliceView{Spec: specs[i], Status: sts[i]})
		}
		return nil
	})
	if err != nil {
		writeErr(w, http.StatusGatewayTimeout, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	if !s.requireSlices(w) {
		return
	}
	name := r.PathValue("name")
	var view SliceView
	found := false
	err := s.doSlices(r, func(*controller.Context) error {
		for _, sp := range s.slices.Specs() {
			if sp.Name == name {
				view.Spec = sp
				view.Status, _ = s.slices.Status(name)
				found = true
			}
		}
		return nil
	})
	if err != nil {
		writeErr(w, http.StatusGatewayTimeout, err.Error())
		return
	}
	if !found {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no slice %q", name))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleSliceUpsert(w http.ResponseWriter, r *http.Request) {
	if !s.requireSlices(w) {
		return
	}
	var sp slice.Spec
	if !readJSON(w, r, &sp) {
		return
	}
	if err := sp.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	err := s.doSlices(r, func(ctx *controller.Context) error {
		return s.slices.Upsert(ctx, sp)
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeErr(w, http.StatusGatewayTimeout, err.Error())
			return
		}
		writeErr(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"slice": sp.Name, "status": "accepted"})
}

func (s *Server) handleSliceDelete(w http.ResponseWriter, r *http.Request) {
	if !s.requireSlices(w) {
		return
	}
	name := r.PathValue("name")
	removed := false
	err := s.doSlices(r, func(ctx *controller.Context) error {
		removed = s.slices.Remove(ctx, name)
		return nil
	})
	if err != nil {
		writeErr(w, http.StatusGatewayTimeout, err.Error())
		return
	}
	if !removed {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no slice %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"slice": name, "status": "removed"})
}

// ---------------------------------------------------------------------------
// Actuation handlers

// doCmd runs one actuation on the master's tick goroutine via Master.Do
// and waits for it to execute. The returned sequence number is the
// client's handle for /cmd/{seq}.
func (s *Server) doCmd(r *http.Request, fn func(ctx *controller.Context) (uint64, error)) (uint64, error) {
	var seq uint64
	var err error
	done := s.m.Do(func(ctx *controller.Context) { seq, err = fn(ctx) })
	select {
	case <-done:
		return seq, err
	case <-r.Context().Done():
		return 0, r.Context().Err()
	}
}

// respondCmd maps an actuation outcome onto the wire: 200 {"seq": n} on
// success, 502 when the master rejected or could not reach the agent.
func respondCmd(w http.ResponseWriter, seq uint64, err error) {
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeErr(w, http.StatusGatewayTimeout, err.Error())
			return
		}
		writeErr(w, http.StatusBadGateway, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"seq": seq})
}

// SharesRequest is the POST /slice-shares body. Module and VSF default to
// the MAC downlink slicer slot.
//
// /slice-shares is the low-level escape hatch: it writes a raw share
// vector directly, bypassing the slice resource model — and the broker
// will overwrite the vector at its next epoch if one is attached. Manage
// slices through PUT /slices unless you are debugging the actuation path.
type SharesRequest struct {
	ENB    lte.ENBID `json:"enb"`
	Module string    `json:"module"`
	VSF    string    `json:"vsf"`
	Shares []float64 `json:"shares"`
}

func (s *Server) handleShares(w http.ResponseWriter, r *http.Request) {
	var req SharesRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.ENB == 0 || len(req.Shares) == 0 {
		writeErr(w, http.StatusBadRequest, "enb and shares are required")
		return
	}
	seq, err := s.doCmd(r, func(ctx *controller.Context) (uint64, error) {
		return ctx.ApplyShares(req.ENB, controller.SharePlan{
			Module: req.Module, VSF: req.VSF, Shares: req.Shares,
		})
	})
	respondCmd(w, seq, err)
}

// VSFRequest is the POST /vsf body: activate a named VSF behavior (the
// runtime scheduler swap of §5.4).
type VSFRequest struct {
	ENB    lte.ENBID `json:"enb"`
	Module string    `json:"module"`
	VSF    string    `json:"vsf"`
	Name   string    `json:"name"`
}

func (s *Server) handleVSF(w http.ResponseWriter, r *http.Request) {
	var req VSFRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Module == "" {
		req.Module = "mac"
	}
	if req.VSF == "" {
		req.VSF = "dl_ue_sched"
	}
	if req.ENB == 0 || req.Name == "" {
		writeErr(w, http.StatusBadRequest, "enb and name are required")
		return
	}
	seq, err := s.doCmd(r, func(ctx *controller.Context) (uint64, error) {
		return ctx.ActivateVSF(req.ENB, req.Module, req.VSF, req.Name)
	})
	respondCmd(w, seq, err)
}

// PolicyRequest is the POST /policy body: a raw policy-reconfiguration
// document (the yamlite subset the agents parse).
type PolicyRequest struct {
	ENB lte.ENBID `json:"enb"`
	Doc string    `json:"doc"`
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	var req PolicyRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.ENB == 0 || req.Doc == "" {
		writeErr(w, http.StatusBadRequest, "enb and doc are required")
		return
	}
	seq, err := s.doCmd(r, func(ctx *controller.Context) (uint64, error) {
		return ctx.PushPolicy(req.ENB, req.Doc)
	})
	respondCmd(w, seq, err)
}

// HandoverRequest is the POST /handover body.
type HandoverRequest struct {
	ENB        lte.ENBID  `json:"enb"`
	RNTI       lte.RNTI   `json:"rnti"`
	IMSI       uint64     `json:"imsi"`
	TargetENB  lte.ENBID  `json:"target_enb"`
	TargetCell lte.CellID `json:"target_cell"`
}

func (s *Server) handleHandover(w http.ResponseWriter, r *http.Request) {
	var req HandoverRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.ENB == 0 || req.RNTI == 0 || req.TargetENB == 0 {
		writeErr(w, http.StatusBadRequest, "enb, rnti and target_enb are required")
		return
	}
	seq, err := s.doCmd(r, func(ctx *controller.Context) (uint64, error) {
		return ctx.CommandHandover(req.ENB, req.RNTI, req.IMSI, req.TargetENB, req.TargetCell)
	})
	respondCmd(w, seq, err)
}

// ---------------------------------------------------------------------------
// Plumbing

func pathENB(w http.ResponseWriter, r *http.Request) (lte.ENBID, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil || id == 0 {
		writeErr(w, http.StatusBadRequest, "bad eNodeB id: "+r.PathValue("id"))
		return 0, false
	}
	return lte.ENBID(id), true
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
