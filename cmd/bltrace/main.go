// bltrace inspects distributed traces through a blgate gateway: it
// fetches one assembled trace (gateway request and attempt spans
// merged with every replica's stage spans) and renders it as an ASCII
// waterfall, or lists the slowest archived traces to pick a victim.
//
// Usage:
//
//	bltrace -gate http://127.0.0.1:8722 <trace-id>
//	bltrace -gate http://127.0.0.1:8722 -slowest 10
//
// The trace ID is the 16-hex value a request's X-Trace-Id response
// header carries (blgate and blserve both echo it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"ballarus/internal/cli"
	"ballarus/internal/obs"
	"ballarus/internal/resilience"
)

// maxResponse bounds a gateway answer; a longer one is an error, not a
// truncated trace.
const maxResponse = 16 << 20

func main() {
	gate := flag.String("gate", "http://127.0.0.1:8722", "blgate base URL")
	slowest := flag.Int("slowest", 0, "list the N slowest archived traces instead of rendering one")
	width := flag.Int("width", 48, "waterfall bar width in columns")
	timeout := flag.Duration("timeout", 10*time.Second, "HTTP timeout")
	flag.Parse()

	client := &http.Client{Timeout: *timeout}
	base := strings.TrimRight(*gate, "/")
	switch {
	case *slowest > 0:
		if err := listSlowest(client, base, *slowest); err != nil {
			cli.Exit("bltrace", err)
		}
	case flag.NArg() == 1:
		if err := render(client, base, flag.Arg(0), *width); err != nil {
			cli.Exit("bltrace", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: bltrace -gate URL <trace-id> | bltrace -gate URL -slowest N")
		os.Exit(2)
	}
}

// fetch GETs path off the gateway and decodes the JSON body into out,
// surfacing the gateway's {error, code} body on non-200s.
func fetch(client *http.Client, base, path string, out any) error {
	resp, err := client.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := resilience.ReadBounded(resp.Body, maxResponse)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s (%s)", path, e.Error, e.Code)
		}
		return fmt.Errorf("%s: http %d", path, resp.StatusCode)
	}
	return json.Unmarshal(body, out)
}

// render prints one assembled trace as a waterfall.
func render(client *http.Client, base, id string, width int) error {
	var a obs.AssembledTrace
	if err := fetch(client, base, "/v1/trace/"+id, &a); err != nil {
		return err
	}
	fmt.Print(obs.RenderWaterfall(&a, width))
	return nil
}

// listSlowest prints the worst archived traces, one row per trace, so
// the ID column can feed a follow-up bltrace <id>.
func listSlowest(client *http.Client, base string, n int) error {
	var body struct {
		Traces []struct {
			ID       string `json:"id"`
			Name     string `json:"name"`
			Duration int64  `json:"duration_ns"`
			Error    string `json:"error"`
			Hedged   bool   `json:"hedged"`
			Spans    int    `json:"spans"`
		} `json:"traces"`
	}
	if err := fetch(client, base, fmt.Sprintf("/v1/trace/slowest?n=%d", n), &body); err != nil {
		return err
	}
	if len(body.Traces) == 0 {
		fmt.Println("no archived traces")
		return nil
	}
	fmt.Printf("%-16s  %-12s  %12s  %5s  %-6s  %s\n", "TRACE", "NAME", "DURATION", "SPANS", "HEDGED", "ERROR")
	for _, t := range body.Traces {
		hedged := ""
		if t.Hedged {
			hedged = "yes"
		}
		fmt.Printf("%-16s  %-12s  %12s  %5d  %-6s  %s\n",
			t.ID, t.Name, time.Duration(t.Duration).Round(time.Microsecond), t.Spans, hedged, t.Error)
	}
	return nil
}
