package gateway

import "dpsync/internal/wire"

// MaxFrameErrors is the malformed-frame bound after which a connection is
// severed.
const MaxFrameErrors = maxFrameErrors

// Refused reports how many replies refused with code, counted where every
// reply passes (clientConn.reply) — readable after Kill, when the telemetry
// collector that exports the same counters is gone.
func (g *Gateway) Refused(code wire.RefusalCode) int64 { return g.refusals[code].Load() }

// StopShards puts g where a shutdown is once its shard workers have exited
// while a connection is still being served — the only state in which a
// request meets wire.CodeClosing, and one no caller can reach on purpose
// (Close waits for every connection before it stops the workers; only an
// accept racing that wait gets there). The listener and the handlers stay up
// and Close becomes a no-op; the returned func closes what is left.
func (g *Gateway) StopShards() (cleanup func()) {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	close(g.quit)
	g.shardWG.Wait()
	return func() {
		g.lis.Close()
		if g.store != nil {
			g.store.Close()
		}
	}
}
