// Package client is the Go client for the ease.ml HTTP service — the
// programmable counterpart of the generated feed/refine/infer binaries
// (§2, Figure 3).
//
// Feed, Infer, InferBatch and InferStream send their floats as a tensor
// body (server.TensorContentType: raw little-endian f64, built in one
// buffer of exactly its size) instead of JSON text, so no float is printed
// here or parsed by the server. They refuse NaN and ±Inf before sending,
// as the JSON encoding they replace did. Every other request, and every
// reply, is JSON.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// Client talks to one ease.ml server. Every request method takes a
// context, so callers own cancellation and deadlines; the underlying
// http.Client's timeout (default 30s, see WithTimeout) is the backstop for
// callers passing context.Background().
type Client struct {
	base    string
	http    *http.Client
	timeout *time.Duration
}

// Option customizes a Client at construction.
type Option func(*Client)

// WithTimeout overrides the default 30s transport timeout (0 disables it,
// leaving deadlines entirely to request contexts). It composes with
// WithHTTPClient — the provided client is shallow-copied, never mutated.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = &d }
}

// WithHTTPClient substitutes the transport, e.g. for connection pooling
// limits, proxies or test doubles.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New creates a client for the server at baseURL (e.g.
// "http://localhost:9000").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: 30 * time.Second},
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.timeout != nil {
		hc := *c.http
		hc.Timeout = *c.timeout
		c.http = &hc
	}
	return c
}

// Submit registers a declarative job and returns the server's reply
// (job id, matched template, generated candidates and code).
func (c *Client) Submit(ctx context.Context, name, program string) (server.SubmitResponse, error) {
	var resp server.SubmitResponse
	err := c.PostJSON(ctx, "/jobs", server.SubmitRequest{Name: name, Program: program}, &resp)
	return resp, err
}

// Jobs lists all job ids on the server.
func (c *Client) Jobs(ctx context.Context) ([]string, error) {
	var resp struct {
		Jobs []string `json:"jobs"`
	}
	err := c.GetJSON(ctx, "/jobs", &resp)
	return resp.Jobs, err
}

// Feed registers example pairs and returns their ids. A mid-batch server
// failure still returns the IDs of the examples that committed before the
// error (alongside the non-nil error), so callers can resume feeding from
// the first uncommitted pair instead of re-sending duplicates.
func (c *Client) Feed(ctx context.Context, jobID string, inputs, outputs [][]float64) ([]int, error) {
	var resp server.FeedResponse
	err := c.postFloats(ctx, "/jobs/"+jobID+"/feed", &server.FeedRequest{Inputs: inputs, Outputs: outputs}, &resp)
	if err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			return apiErr.CommittedIDs, err
		}
		return nil, err
	}
	return resp.IDs, nil
}

// Refine enables or disables an example.
func (c *Client) Refine(ctx context.Context, jobID string, exampleID int, enabled bool) error {
	var resp map[string]bool
	return c.PostJSON(ctx, "/jobs/"+jobID+"/refine", server.RefineRequest{Example: exampleID, Enabled: enabled}, &resp)
}

// Infer applies the best model so far to one input object.
func (c *Client) Infer(ctx context.Context, jobID string, input []float64) (server.InferResponse, error) {
	var resp server.InferResponse
	err := c.postFloats(ctx, "/jobs/"+jobID+"/infer", &server.InferRequest{Input: input}, &resp)
	return resp, err
}

// InferBatch applies the best model to many inputs in one request: one
// round trip, one server-side session, one model for every output.
func (c *Client) InferBatch(ctx context.Context, jobID string, inputs [][]float64) (server.InferBatchResponse, error) {
	var resp server.InferBatchResponse
	err := c.postFloats(ctx, "/jobs/"+jobID+"/infer/batch", &server.InferBatchRequest{Inputs: inputs}, &resp)
	return resp, err
}

// InferStream posts inputs to the NDJSON streaming endpoint and invokes fn
// for each prediction as the server flushes it. It returns the serving
// model's name. A non-nil error from fn aborts the stream (the connection
// is dropped, which is the protocol's cancellation signal).
func (c *Client) InferStream(ctx context.Context, jobID string, inputs [][]float64, fn func(index int, output []float64) error) (string, error) {
	path := "/jobs/" + jobID + "/infer/stream"
	resp, err := c.sendFloats(ctx, path, &server.InferBatchRequest{Inputs: inputs})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		raw, _ := io.ReadAll(resp.Body)
		return "", apiError(path, resp.StatusCode, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return "", fmt.Errorf("client: %s: reading stream header: %w", path, err)
		}
		return "", fmt.Errorf("client: %s: empty stream", path)
	}
	var hdr server.InferStreamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return "", fmt.Errorf("client: %s: decode stream header: %w", path, err)
	}
	for sc.Scan() {
		var line server.InferStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return hdr.Model, fmt.Errorf("client: %s: decode stream line: %w", path, err)
		}
		if err := fn(line.Index, line.Output); err != nil {
			return hdr.Model, err
		}
	}
	if err := sc.Err(); err != nil {
		return hdr.Model, fmt.Errorf("client: %s: reading stream: %w", path, err)
	}
	return hdr.Model, nil
}

// Status reports the job's trained models and current best.
func (c *Client) Status(ctx context.Context, jobID string) (server.Status, error) {
	var resp server.Status
	err := c.GetJSON(ctx, "/jobs/"+jobID+"/status", &resp)
	return resp, err
}

// RunRounds asks the server to execute n scheduling rounds synchronously.
func (c *Client) RunRounds(ctx context.Context, n int) (server.RoundsResponse, error) {
	var resp server.RoundsResponse
	err := c.PostJSON(ctx, "/admin/rounds", server.RoundsRequest{Count: n}, &resp)
	return resp, err
}

// PostJSON POSTs body to path as JSON and decodes the JSON reply into dst.
// A non-2xx reply is an *APIError. Like every request of the Client, it
// carries ctx's trace ID (telemetry.WithTraceID) in the X-Easeml-Trace
// header. The typed methods above and the fleet agent's protocol calls
// are built on it and GetJSON.
func (c *Client) PostJSON(ctx context.Context, path string, body, dst any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: encode %s: %w", path, err)
	}
	resp, err := c.send(ctx, path, "application/json", payload)
	if err != nil {
		return err
	}
	return decode(path, resp, dst)
}

// postFloats is post with body sent as a tensor body.
func (c *Client) postFloats(ctx context.Context, path string, body server.FloatBody, dst any) error {
	resp, err := c.sendFloats(ctx, path, body)
	if err != nil {
		return err
	}
	return decode(path, resp, dst)
}

// sendFloats POSTs body to path as a tensor body.
func (c *Client) sendFloats(ctx context.Context, path string, body server.FloatBody) (*http.Response, error) {
	payload, err := server.TensorBody(body)
	if err != nil {
		return nil, fmt.Errorf("client: encode %s: %w", path, err)
	}
	return c.send(ctx, path, server.TensorContentType, payload)
}

// send POSTs payload to path.
func (c *Client) send(ctx context.Context, path, contentType string, payload []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("client: build POST %s: %w", path, err)
	}
	req.Header.Set("Content-Type", contentType)
	telemetry.SetTraceHeader(req.Header, ctx)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: POST %s: %w", path, err)
	}
	return resp, nil
}

// GetJSON GETs path and decodes the JSON reply into dst, as PostJSON.
func (c *Client) GetJSON(ctx context.Context, path string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("client: build GET %s: %w", path, err)
	}
	telemetry.SetTraceHeader(req.Header, ctx)
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: GET %s: %w", path, err)
	}
	return decode(path, resp, dst)
}

// APIError is a non-2xx server reply, decoded from the standard error
// envelope. Callers can errors.As for it to branch on Status or Code
// instead of string-matching the message.
type APIError struct {
	Path    string
	Status  int
	Code    string // machine tag, e.g. "lease_conflict", "" when untagged
	Message string // server's error text, "" when the body wasn't an envelope
	// CommittedIDs carries the example IDs a partially-failed feed batch
	// had already durably appended before the error (feed replies only).
	CommittedIDs []int
}

func (e *APIError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("client: %s: HTTP %d", e.Path, e.Status)
	}
	return fmt.Sprintf("client: %s: %s (HTTP %d)", e.Path, e.Message, e.Status)
}

// apiError builds the APIError for one non-2xx reply body.
func apiError(path string, status int, raw []byte) *APIError {
	e := &APIError{Path: path, Status: status}
	var body server.ErrorBody
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		e.Message = body.Error
		e.Code = body.Code
		e.CommittedIDs = body.IDs
	}
	return e
}

func decode(path string, resp *http.Response, dst any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: read %s: %w", path, err)
	}
	if resp.StatusCode >= 400 {
		return apiError(path, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}
