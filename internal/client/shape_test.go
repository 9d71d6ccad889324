package client

import (
	"errors"
	"sync/atomic"
	"testing"

	"dpsync/internal/edb"
	"dpsync/internal/gateway"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/seal"
	"dpsync/internal/wire"
)

// TestQueryRefusesAnAnswerOfTheWrongShape scripts the server a query goes
// to: an answer whose shape its kind does not have — GroupCount's is a
// vector of record.NumLocations groups, every other kind's a scalar — or a
// response without an answer or a cost is a malformed frame to the caller,
// never an answer; the same answers in the right shape are served. From a
// read replica a wrong shape is replica trouble: the read falls back to the
// primary, which answers it.
func TestQueryRefusesAnAnswerOfTheWrongShape(t *testing.T) {
	groups := func(n int) *wire.Response {
		r := wire.NewBoundedQueryResponse(query.Answer{Groups: make([]float64, n)}, edb.Cost{}, query.GroupCount, 10)
		return &r
	}
	scalar := func(v float64) *wire.Response {
		r := wire.NewBoundedQueryResponse(query.Answer{Scalar: v}, edb.Cost{}, query.RangeCount, 10)
		return &r
	}
	noCost := scalar(3)
	noCost.Cost = nil
	var next atomic.Pointer[wire.Response]
	server := startScriptedReplica(t, func(wire.GatewayRequest) *wire.Response { return next.Load() })
	key, err := seal.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := DialGateway(server.lis.Addr().String(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	own := conn.Owner("owner-shapes")
	for _, tc := range []struct {
		name string
		q    query.Query
		resp *wire.Response
		ok   bool
	}{
		{"Q2 as 265 groups", query.Q2(), groups(record.NumLocations), true},
		{"Q2 as a scalar", query.Q2(), scalar(7), false},
		{"Q2 as 264 groups", query.Q2(), groups(record.NumLocations - 1), false},
		{"Q2 as one group", query.Q2(), groups(1), false},
		{"Q1 as a scalar", query.Q1(), scalar(7), true},
		{"Q1 as 265 groups", query.Q1(), groups(record.NumLocations), false},
		{"Q1 without a cost", query.Q1(), noCost, false},
		{"Q3 as 265 groups", query.Q3(), groups(record.NumLocations), false},
		{"Q4 as one group", query.Q4(), groups(1), false},
		{"Q4 as a scalar", query.Q4(), scalar(9), true},
	} {
		next.Store(tc.resp)
		ans, _, err := own.Query(tc.q)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, wire.ErrBadFrame) {
			t.Errorf("%s: answered %v with %d groups, err %v; want wire.ErrBadFrame", tc.name, ans.Scalar, len(ans.Groups), err)
		}
	}

	// The same wrong shapes from a read replica: the primary answers.
	gw, gkey := startGateway(t, gateway.Config{})
	replica := startScriptedReplica(t, func(req wire.GatewayRequest) *wire.Response {
		if query.Kind(req.Req.Query.Kind) == query.GroupCount {
			return scalar(7)
		}
		return groups(record.NumLocations)
	})
	rconn, err := DialGateway(gw.Addr(), gkey, WithReadReplica(replica.lis.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer rconn.Close()
	rown := rconn.Owner("owner-shapes")
	if err := rown.Setup(stairs(3)); err != nil {
		t.Fatal(err)
	}
	for i, q := range []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()} {
		ans, _, err := rown.Query(q)
		if err != nil {
			t.Fatalf("%v behind a replica of the wrong shapes: %v", q.Kind, err)
		}
		if (q.Kind == query.GroupCount) != (len(ans.Groups) == record.NumLocations) {
			t.Errorf("%v behind a replica of the wrong shapes: %d groups", q.Kind, len(ans.Groups))
		}
		wantReplicaStats(t, rconn, 0, int64(i+1))
	}
}
