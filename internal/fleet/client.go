package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/url"

	"repro/internal/client"
)

// IsCode reports whether err is a coordinator reply (a *client.APIError)
// carrying the given machine code, so agents can branch: re-register on
// CodeUnknownWorker, drop the retry on a lease conflict.
func IsCode(err error, code string) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Code == code
}

// protoClient is the agent side of the coordinator protocol: one typed,
// context-aware call per endpoint over the service client's JSON
// plumbing, which also carries the lease's trace ID from ctx.
type protoClient struct {
	c *client.Client
}

func newProtoClient(base string, httpc *http.Client) *protoClient {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &protoClient{client.New(base, client.WithHTTPClient(httpc))}
}

func (p *protoClient) register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := p.c.PostJSON(ctx, "/fleet/register", req, &resp)
	return resp, err
}

// lease polls for work. A non-positive Max is defaulted to 1 client-side —
// the coordinator treats it as a protocol error (400 bad_request), so the
// client never sends one.
func (p *protoClient) lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	if req.Max <= 0 {
		req.Max = 1
	}
	var resp LeaseResponse
	err := p.c.PostJSON(ctx, "/fleet/lease", req, &resp)
	return resp, err
}

func (p *protoClient) heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := p.c.PostJSON(ctx, "/fleet/heartbeat", req, &resp)
	return resp, err
}

func (p *protoClient) complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	var resp CompleteResponse
	err := p.c.PostJSON(ctx, "/fleet/complete", req, &resp)
	return resp, err
}

func (p *protoClient) leave(ctx context.Context, workerID string) (LeaveResponse, error) {
	var resp LeaveResponse
	err := p.c.PostJSON(ctx, "/fleet/leave", LeaveRequest{WorkerID: workerID}, &resp)
	return resp, err
}

func (p *protoClient) jobInfo(ctx context.Context, jobID string) (JobInfo, error) {
	var info JobInfo
	err := p.c.GetJSON(ctx, "/fleet/job?id="+url.QueryEscape(jobID), &info)
	return info, err
}
