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
	mux.Handle("/fleet/register", server.Route{Post: c.handleRegister})
	mux.Handle("/fleet/lease", server.Route{Post: c.handleLease})
	mux.Handle("/fleet/heartbeat", server.Route{Post: c.handleHeartbeat})
	mux.Handle("/fleet/complete", server.Route{Post: c.handleComplete})
	mux.Handle("/fleet/leave", server.Route{Post: c.handleLeave})
	mux.Handle("/fleet/job", server.Route{Get: c.handleJob})
	return mux
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !server.ReadJSON(w, r, &req) {
		return
	}
	server.WriteJSON(w, http.StatusOK, c.Register(req))
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !server.ReadJSON(w, r, &req) {
		return
	}
	resp, err := c.Lease(req)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !server.ReadJSON(w, r, &req) {
		return
	}
	resp, err := c.Heartbeat(req)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !server.ReadJSON(w, r, &req) {
		return
	}
	resp, err := c.Complete(req)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if !server.ReadJSON(w, r, &req) {
		return
	}
	resp, err := c.Leave(req.WorkerID)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	info, err := c.JobInfo(r.URL.Query().Get("id"))
	if err != nil {
		server.WriteError(w, http.StatusNotFound, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, info)
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
