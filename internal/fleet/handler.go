package fleet

import (
	"errors"
	"net/http"

	"repro/internal/server"
)

// Handler returns the coordinator's HTTP surface (the /fleet/* endpoints
// listed in the protocol docs). Mount it alongside the service API — the
// easeml facade does — or serve it on a dedicated fleet address.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/register", c.handleRegister)
	mux.HandleFunc("/fleet/lease", c.handleLease)
	mux.HandleFunc("/fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/fleet/complete", c.handleComplete)
	mux.HandleFunc("/fleet/leave", c.handleLeave)
	mux.HandleFunc("/fleet/job", c.handleJob)
	return mux
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, c.Register(req))
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := c.Lease(req)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := c.Heartbeat(req)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := c.Complete(req)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := c.Leave(req.WorkerID)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	info, err := c.JobInfo(r.URL.Query().Get("id"))
	if err != nil {
		server.WriteError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// writeFleetError maps coordinator errors onto the service's shared error
// envelope: malformed requests are 400 with code "bad_request" (the sender
// must fix, not retry), unknown workers get their fleet-specific 409 code
// (agents re-register on it), lease conflicts inherit the server mapping,
// and everything else is a 500.
func writeFleetError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadRequest):
		server.WriteJSON(w, http.StatusBadRequest, server.ErrorBody{Error: err.Error(), Code: CodeBadRequest})
	case errors.Is(err, ErrUnknownWorker):
		server.WriteJSON(w, http.StatusConflict, server.ErrorBody{Error: err.Error(), Code: CodeUnknownWorker})
	case errors.Is(err, server.ErrLeaseConflict):
		server.WriteError(w, http.StatusConflict, err)
	default:
		server.WriteError(w, http.StatusInternalServerError, err)
	}
}

func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return false
	}
	return server.ReadJSON(w, r, dst)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	server.WriteJSON(w, status, v)
}
