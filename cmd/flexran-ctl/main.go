// flexran-ctl is the command-line client for the master's northbound HTTP
// API (flexran-master -api): RIB queries, live event watching over SSE and
// actuation (slice shares, VSF activation, policy documents, handovers).
//
// Usage:
//
//	flexran-ctl [-api http://127.0.0.1:9090] <command> [args]
//
//	get agents                 list known agents
//	get enb <id>               one eNodeB: cells, UE list
//	get ue <id> <rnti>         one UE: stats, identity, last measurement
//	get health                 controller cycle + per-agent health
//	get loop                   real-time loop deadline/latency stats
//	get apps                   registered applications and counters
//	get cmd <seq> [-wait 2s]   outcome of a sequenced command
//	get slices [name]          slice specs and live SLA status
//	watch [-enb N] [-kinds stats,ue] [-count N] [-timeout 10s]
//	set slice -f <file|->      install/replace a slice spec (JSON)
//	set shares <enb> <s1,s2,…> [-module mac] [-vsf dl_ue_sched] [-wait 2s]
//	set vsf <enb> <name>       activate a VSF behavior
//	set policy <enb> <file|->  push a policy document (from file or stdin)
//	set handover <enb> <rnti> <target-enb> [-cell N] [-imsi N] [-wait 2s]
//	delete slice <name>        remove a slice
//
// Slices are the declarative resource model: `set slice` PUTs a SliceSpec
// to the broker, which runs admission control and re-plans shares each
// epoch. `set shares` is the low-level escape hatch that writes a raw
// vector directly (the broker will overwrite it at its next epoch).
//
// Actuation prints the assigned command sequence number; with -wait the
// client then polls /cmd/{seq} for the agent's acknowledgement.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	api := flag.String("api", "http://127.0.0.1:9090", "northbound API base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c := &client{base: strings.TrimRight(*api, "/")}
	var err error
	switch args[0] {
	case "get":
		err = c.get(args[1:])
	case "watch":
		err = c.watch(args[1:])
	case "set":
		err = c.set(args[1:])
	case "delete":
		err = c.del(args[1:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexran-ctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: flexran-ctl [-api URL] <get|watch|set|delete> [args]
  get agents|health|loop|apps
  get enb <id>
  get ue <id> <rnti>
  get cmd <seq> [-wait 2s]
  get slices [name]
  watch [-enb N] [-kinds hello,up,down,stats,ue,meas,handover,health,slice,cmd_failed] [-count N] [-timeout 10s]
  set slice -f <file|->
  set shares <enb> <s1,s2,...> [-module mac] [-vsf dl_ue_sched] [-wait 2s]
  set vsf <enb> <name> [-module mac] [-vsf dl_ue_sched] [-wait 2s]
  set policy <enb> <file|-> [-wait 2s]
  set handover <enb> <rnti> <target-enb> [-cell N] [-imsi N] [-wait 2s]
  delete slice <name>`)
	os.Exit(2)
}

type client struct{ base string }

// fetch GETs a path and pretty-prints the JSON body; non-2xx responses
// surface the server's error message.
func (c *client) fetch(path string) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	os.Stdout.Write(body)
	return nil
}

func (c *client) get(args []string) error {
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "agents":
		return c.fetch("/rib/agents")
	case "health":
		return c.fetch("/health")
	case "loop":
		return c.fetch("/stats/loop")
	case "apps":
		return c.fetch("/apps")
	case "enb":
		if len(args) < 2 {
			usage()
		}
		return c.fetch("/rib/enb/" + args[1])
	case "ue":
		if len(args) < 3 {
			usage()
		}
		return c.fetch("/rib/enb/" + args[1] + "/ue/" + args[2])
	case "cmd":
		if len(args) < 2 {
			usage()
		}
		fs := flag.NewFlagSet("get cmd", flag.ExitOnError)
		wait := fs.Duration("wait", 0, "wait up to this long for the outcome")
		fs.Parse(args[2:])
		path := "/cmd/" + args[1]
		if *wait > 0 {
			path += "?wait=" + wait.String()
		}
		return c.fetch(path)
	case "slices":
		if len(args) > 1 {
			return c.fetch("/slices/" + args[1])
		}
		return c.fetch("/slices")
	}
	usage()
	return nil
}

// watch streams /watch (SSE), printing one JSON event per line until
// count events arrived, the timeout expired, or the server signalled a
// resync (subscriber overflow).
func (c *client) watch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	enb := fs.Uint("enb", 0, "only events from this eNodeB (0 = all)")
	kinds := fs.String("kinds", "", "comma-separated event kinds (empty = all)")
	count := fs.Int("count", 0, "exit after this many events (0 = forever)")
	timeout := fs.Duration("timeout", 0, "exit after this long (0 = forever)")
	fs.Parse(args)

	q := make([]string, 0, 2)
	if *enb != 0 {
		q = append(q, "enb="+strconv.FormatUint(uint64(*enb), 10))
	}
	if *kinds != "" {
		q = append(q, "kinds="+*kinds)
	}
	url := c.base + "/watch"
	if len(q) > 0 {
		url += "?" + strings.Join(q, "&")
	}
	client := &http.Client{Timeout: 0}
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		t := time.AfterFunc(*timeout, func() {
			// Tear the connection down; the read loop exits on the error.
			tr, _ := client.Transport.(*http.Transport)
			if tr != nil {
				tr.CloseIdleConnections()
			}
		})
		defer t.Stop()
		client.Timeout = *timeout
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	seen := 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: resync"):
			fmt.Println(`{"resync": true}`)
			return fmt.Errorf("stream overflowed; re-read the RIB and re-subscribe")
		case strings.HasPrefix(line, "data: "):
			fmt.Println(strings.TrimPrefix(line, "data: "))
			seen++
			if *count > 0 && seen >= *count {
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil && *timeout == 0 {
		return err
	}
	return nil
}

// post sends one actuation and optionally waits for the command outcome.
func (c *client) post(path string, body any, wait time.Duration) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	os.Stdout.Write(out)
	if wait <= 0 {
		return nil
	}
	var r struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(out, &r); err != nil || r.Seq == 0 {
		// Unsequenced command (reliable delivery off): nothing to wait for.
		return nil
	}
	return c.fetch(fmt.Sprintf("/cmd/%d?wait=%s", r.Seq, wait))
}

// send issues a request with an arbitrary method (PUT/DELETE) and
// pretty-prints the JSON response.
func (c *client) send(method, path string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	os.Stdout.Write(out)
	return nil
}

func (c *client) del(args []string) error {
	if len(args) < 2 || args[0] != "slice" {
		usage()
	}
	return c.send("DELETE", "/slices/"+args[1], nil)
}

func (c *client) set(args []string) error {
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "slice":
		fs := flag.NewFlagSet("set slice", flag.ExitOnError)
		file := fs.String("f", "", "slice spec JSON file (- for stdin)")
		fs.Parse(args[1:])
		if *file == "" {
			usage()
		}
		var spec []byte
		var err error
		if *file == "-" {
			spec, err = io.ReadAll(os.Stdin)
		} else {
			spec, err = os.ReadFile(*file)
		}
		if err != nil {
			return err
		}
		return c.send("PUT", "/slices", spec)
	case "shares":
		if len(args) < 3 {
			usage()
		}
		enb, err := strconv.ParseUint(args[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad enb %q", args[1])
		}
		var shares []float64
		for _, s := range strings.Split(args[2], ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad share %q", s)
			}
			shares = append(shares, v)
		}
		fs := flag.NewFlagSet("set shares", flag.ExitOnError)
		module := fs.String("module", "mac", "control module")
		vsf := fs.String("vsf", "dl_ue_sched", "VSF slot")
		wait := fs.Duration("wait", 0, "wait for the agent acknowledgement")
		fs.Parse(args[3:])
		return c.post("/slice-shares", map[string]any{
			"enb": enb, "module": *module, "vsf": *vsf, "shares": shares,
		}, *wait)
	case "vsf":
		if len(args) < 3 {
			usage()
		}
		enb, err := strconv.ParseUint(args[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad enb %q", args[1])
		}
		fs := flag.NewFlagSet("set vsf", flag.ExitOnError)
		module := fs.String("module", "mac", "control module")
		vsf := fs.String("vsf", "dl_ue_sched", "VSF slot")
		wait := fs.Duration("wait", 0, "wait for the agent acknowledgement")
		fs.Parse(args[3:])
		return c.post("/vsf", map[string]any{
			"enb": enb, "module": *module, "vsf": *vsf, "name": args[2],
		}, *wait)
	case "policy":
		if len(args) < 3 {
			usage()
		}
		enb, err := strconv.ParseUint(args[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad enb %q", args[1])
		}
		var doc []byte
		if args[2] == "-" {
			doc, err = io.ReadAll(os.Stdin)
		} else {
			doc, err = os.ReadFile(args[2])
		}
		if err != nil {
			return err
		}
		fs := flag.NewFlagSet("set policy", flag.ExitOnError)
		wait := fs.Duration("wait", 0, "wait for the agent acknowledgement")
		fs.Parse(args[3:])
		return c.post("/policy", map[string]any{"enb": enb, "doc": string(doc)}, *wait)
	case "handover":
		if len(args) < 4 {
			usage()
		}
		enb, err1 := strconv.ParseUint(args[1], 10, 32)
		rnti, err2 := strconv.ParseUint(args[2], 10, 16)
		target, err3 := strconv.ParseUint(args[3], 10, 32)
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("bad handover args %q %q %q", args[1], args[2], args[3])
		}
		fs := flag.NewFlagSet("set handover", flag.ExitOnError)
		cell := fs.Uint("cell", 0, "target cell id")
		imsi := fs.Uint64("imsi", 0, "UE IMSI (when known)")
		wait := fs.Duration("wait", 0, "wait for the agent acknowledgement")
		fs.Parse(args[4:])
		return c.post("/handover", map[string]any{
			"enb": enb, "rnti": rnti, "imsi": *imsi,
			"target_enb": target, "target_cell": *cell,
		}, *wait)
	}
	usage()
	return nil
}
