package attacker

import (
	"masterparasite/internal/cnc"
	"masterparasite/internal/httpsim"
)

// CNCAdapter serves a cnc.MasterServer over httpsim, so the same covert
// protocol runs both on a real loopback socket (cnc package, cmd/master)
// and inside the packet simulation (Fig. 4's "establish C&C connection").
// It dispatches straight into the server's transport-independent Route,
// skipping the net/http request and response-recorder scaffolding the
// simulation used to pay for on every covert image; the header policy is
// shared with ServeHTTP through cnc.SetResponseHeaders, so the two
// transports stay byte-identical on the wire.
func CNCAdapter(m *cnc.MasterServer) httpsim.HandlerFunc {
	return func(req *httpsim.Request) *httpsim.Response {
		status, ctype, body := m.Route(req.Path, nil)
		out := httpsim.NewResponse(status, body)
		cnc.SetResponseHeaders(status, ctype, out.Header.Set)
		return out
	}
}
