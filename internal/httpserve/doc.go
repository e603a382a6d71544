// Package httpserve is the network front end of the serving layer: a
// versioned HTTP/JSON wire protocol over match.Server, with per-tenant
// bearer-token authentication, per-request deadline propagation,
// request-size limits, typed error→status mapping, access logging, and
// a Prometheus text-format /metrics endpoint exposing the admission,
// cache and candidate-pruning telemetry the lower layers collect.
// cmd/matchd owns the listener lifecycle (TLS, signal driven graceful
// drain); this package owns everything between the connection and the
// Server.
//
// # Wire protocol (v1)
//
// All serving routes live under the /v1 prefix; bodies are JSON
// (requests are decoded strictly: unknown fields, trailing data,
// non-finite or negative deltas, and malformed matcher specs are
// rejected with 400).
//
//	POST /v1/match/{tenant}          one matching request
//	POST /v1/batch                   a cross-tenant batch (MatchBatch)
//	GET  /v1/tenants                 registered tenant names (admin)
//	GET  /v1/tenants/{tenant}/stats  one tenant's serving stats
//	GET  /metrics                    Prometheus text format (open)
//	GET  /healthz                    200 serving / 503 draining (open)
//	POST /admin/v1/tenants/{tenant}  register a tenant (repository XML body)
//	PUT  /admin/v1/tenants/{tenant}  replace a tenant's repository (XML body)
//
// A match request carries the personal schema as a JSON tree plus the
// familiar Request fields:
//
//	{"personal": {"name": "library",
//	              "root": {"name": "library", "children": [
//	                        {"name": "book", "children": [
//	                          {"name": "title", "type": "string"}]}]}},
//	 "delta": 0.3, "matcher": "beam:8", "limit": 10}
//
// Requests carrying structurally identical personal schemas are
// interned to one *xmlschema.Schema instance, so repeated wire queries
// hit the service's per-personal session cache (cost tables, baseline
// answers) exactly as repeated in-process queries do.
//
// # Authentication
//
// When a Config.Auth is set, serving routes require a bearer token
// (`Authorization: Bearer <token>`) that authorizes the named tenant —
// either a tenant-scoped token (AuthConfig.TenantTokens) or a global
// one (AuthConfig.GlobalTokens). A batch needs authorization for every
// tenant it names. The admin surface requires an AdminTokens entry.
// Missing credentials yield 401, insufficient ones 403; token
// comparison is constant-time. A nil Auth leaves the server open
// (benchmark and smoke-test mode). /metrics and /healthz are always
// unauthenticated.
//
// # Deadlines
//
// The X-Match-Deadline-Ms request header bounds one request end to
// end: its value (integer milliseconds > 0, clamped to
// Config.MaxDeadline) becomes a context deadline, which the engine's
// cancellation plumbing honors at every enumeration loop — expiry
// returns 504 promptly with no goroutine left running the search. The
// client also cancels the context when its connection drops.
//
// # Error mapping
//
// Typed serving errors map onto statuses; every error response body is
// {"error": {"code": ..., "message": ...}}:
//
//	match.ErrOverloaded    429 overloaded (Retry-After: 1)
//	match.ErrUnknownTenant 404 unknown_tenant
//	match.ErrTenantExists  409 tenant_exists (admin)
//	match.ErrServerClosed  503 server_closed
//	context deadline/cancel 504 deadline_exceeded
//	malformed request       400 bad_request
//	oversized body          413 too_large
//	missing/bad credentials 401/403 unauthorized/forbidden
//
// # Drain semantics
//
// During a graceful drain (Server.Drain, driven by cmd/matchd on
// SIGTERM/SIGINT) /healthz flips to 503 so load balancers stop routing
// here, new matching requests are rejected with 503 server_closed, and
// requests admitted before the drain run to completion and deliver
// their results.
package httpserve
