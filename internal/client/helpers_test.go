package client

import (
	"context"

	"repro/internal/server"
)

// What follows only this package's tests call: no command, example or
// public API reaches it (go run ./tools/reachgate).

// FleetStatus reports the fleet worker registry (GET /admin/fleet); it
// errors with HTTP 409 on servers running without a fleet coordinator.
func (c *Client) FleetStatus(ctx context.Context) (server.FleetStatus, error) {
	var resp server.FleetStatus
	err := c.GetJSON(ctx, "/admin/fleet", &resp)
	return resp, err
}
