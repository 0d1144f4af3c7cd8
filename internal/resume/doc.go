// Package resume holds the per-session diff journal that lets a
// reconnecting client pick its session back up instead of cold-starting:
// the paper's mobile clients live on flaky Wi-Fi/LTE, where a dropped
// connection is the common case, and a client that missed a few student
// diffs should get exactly those again, not a full StudentFull retransfer.
//
// A Journal is a bounded ring of the most recent encoded student diffs of
// one session, appended in sequence order as the server sends them. On
// resume, Suffix hands back exactly the diffs past the client's last
// applied sequence number, or reports that the gap reaches past the ring's
// tail and a full checkpoint is needed. The session itself, parked or
// attached, lives in internal/serve's registry; the journal travels with it.
package resume
