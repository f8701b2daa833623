package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ballarus/internal/obs"
	"ballarus/internal/resilience"
	"ballarus/internal/service"
)

// maxShardResponse bounds a remote shard's answer body.
const maxShardResponse = 16 << 20

// Executor runs one shard somewhere — in-process, through the service's
// metered shard stage, or on a remote replica via HTTP. Implementations
// must respect ctx (the engine sets it to the shard's lease deadline) and
// return errors classified by the resilience taxonomy: ErrInvalidInput
// fails the job, everything else is retried with backoff.
type Executor interface {
	ExecuteShard(ctx context.Context, req *ShardRequest) (*ShardResult, error)
}

// LocalExecutor runs shards directly on a Runner, bypassing the service
// pipeline. Used by tests and single-process runs.
type LocalExecutor struct {
	Runner *Runner
}

func (x *LocalExecutor) ExecuteShard(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	return x.Runner.RunShard(ctx, req)
}

// ServiceExecutor routes shards through Service.Shard, so local jobs
// share the replica worker pool, cache, breaker, and metrics with
// remotely-submitted shards.
type ServiceExecutor struct {
	Svc *service.Service
}

func (x *ServiceExecutor) ExecuteShard(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, resilience.Invalid(err)
	}
	out, err := x.Svc.Shard(ctx, payload)
	if err != nil {
		return nil, err
	}
	var res ShardResult
	if err := json.Unmarshal(out.Payload, &res); err != nil {
		return nil, fmt.Errorf("jobs: bad shard result: %w", err)
	}
	return &res, nil
}

// HTTPExecutor posts shards to a blserve replica's (or the blgate
// gateway's) POST /v1/shard endpoint. The lease deadline propagates as
// X-Deadline-Ms so the replica aborts work the coordinator will no
// longer accept.
type HTTPExecutor struct {
	// Base is the replica or gateway base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// Client defaults to a plain http.Client (deadlines come from ctx).
	Client *http.Client
}

func (x *HTTPExecutor) ExecuteShard(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, resilience.Invalid(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, x.Base+"/v1/shard", bytes.NewReader(payload))
	if err != nil {
		return nil, resilience.Invalid(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if sc, ok := obs.SpanContextFrom(ctx); ok && sc.Valid() {
		hreq.Header.Set(obs.TraceHeader, sc.Header())
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			hreq.Header.Set("X-Deadline-Ms", strconv.FormatInt(ms, 10))
		}
	}
	client := x.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(hreq)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, resilience.MarkTransient(err)
	}
	defer resp.Body.Close()
	body, err := resilience.ReadBounded(resp.Body, maxShardResponse)
	var tooLarge *resilience.BodyTooLargeError
	if errors.As(err, &tooLarge) {
		// Every replica computes the same answer: a retry cannot fit.
		return nil, resilience.Invalid(fmt.Errorf("jobs: shard response: %w", err))
	}
	if err != nil {
		return nil, resilience.MarkTransient(err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := httpErrMessage(body, resp.StatusCode)
		switch resp.StatusCode {
		case http.StatusBadRequest, http.StatusNotFound,
			http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			// The replica rejected the shard itself — retrying the same
			// bytes elsewhere cannot help.
			return nil, resilience.Invalid(errors.New(msg))
		default:
			// Overload, timeout, crash mid-request: try again later,
			// possibly on another replica.
			return nil, resilience.MarkTransient(errors.New(msg))
		}
	}
	var res ShardResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, resilience.MarkTransient(fmt.Errorf("jobs: bad shard response: %w", err))
	}
	return &res, nil
}

// httpErrMessage extracts the {error, code} body blserve and blgate
// produce, falling back to the raw status.
func httpErrMessage(body []byte, status int) string {
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Sprintf("shard failed: %d %s (%s)", status, e.Code, e.Error)
	}
	return fmt.Sprintf("shard failed: status %d", status)
}
