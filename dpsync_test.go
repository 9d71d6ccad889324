package dpsync_test

import (
	"fmt"
	"math"
	"testing"

	"dpsync"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	db, err := dpsync.NewObliDB()
	if err != nil {
		t.Fatal(err)
	}
	strat, err := dpsync.NewDPTimer(dpsync.TimerConfig{
		Epsilon: 1, Period: 10, FlushInterval: 50, FlushSize: 5,
		Source: dpsync.SeededNoise(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := dpsync.New(dpsync.Config{Database: db, Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Setup(nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		var terr error
		if i%4 == 0 {
			terr = owner.Tick(dpsync.Record{
				PickupTime: dpsync.Tick(i),
				PickupID:   uint16(i%dpsync.NumLocations + 1),
				Provider:   dpsync.YellowCab,
			})
		} else {
			terr = owner.Tick()
		}
		if terr != nil {
			t.Fatal(terr)
		}
	}
	ans, cost, err := owner.Query(dpsync.Q2())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Total() > float64(owner.LogicalSize()) {
		t.Errorf("answer total %v exceeds logical size %d", ans.Total(), owner.LogicalSize())
	}
	if cost.Seconds <= 0 {
		t.Error("no modeled cost")
	}
	if owner.Pattern().Updates() == 0 {
		t.Error("no update pattern recorded")
	}
}

func TestPublicAPICrypteps(t *testing.T) {
	db, err := dpsync.NewCrypteps()
	if err != nil {
		t.Fatal(err)
	}
	if db.Leakage() != dpsync.LDP {
		t.Errorf("leakage = %v", db.Leakage())
	}
	if db.Supports(dpsync.Q3()) {
		t.Error("Cryptε must reject joins")
	}
	strat, err := dpsync.NewDPANT(dpsync.ANTConfig{
		Epsilon: 0.5, Threshold: 5, Source: dpsync.SeededNoise(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := dpsync.New(dpsync.Config{Database: db, Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Setup(nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		var terr error
		if i%3 == 0 {
			terr = owner.Tick(dpsync.Record{
				PickupTime: dpsync.Tick(i), PickupID: 75, Provider: dpsync.YellowCab,
			})
		} else {
			terr = owner.Tick()
		}
		if terr != nil {
			t.Fatal(terr)
		}
	}
	err1, _, err := owner.QueryError(dpsync.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(err1, 0) || err1 > 100 {
		t.Errorf("Q1 error = %v, want a bounded value", err1)
	}
}

func TestCustomQueryBuilders(t *testing.T) {
	q := dpsync.RangeCount(dpsync.GreenTaxi, 10, 20)
	if err := q.Validate(); err != nil {
		t.Error(err)
	}
	if err := dpsync.GroupCount(dpsync.YellowCab).Validate(); err != nil {
		t.Error(err)
	}
	if err := dpsync.JoinCount(dpsync.YellowCab, dpsync.GreenTaxi).Validate(); err != nil {
		t.Error(err)
	}
	if dpsync.RangeCount(dpsync.YellowCab, 30, 20).Validate() == nil {
		t.Error("inverted range accepted")
	}
}

func TestDefaultsExposed(t *testing.T) {
	tc := dpsync.DefaultTimerConfig()
	if tc.Epsilon != 0.5 || tc.Period != 30 {
		t.Errorf("timer defaults = %+v", tc)
	}
	ac := dpsync.DefaultANTConfig()
	if ac.Threshold != 15 {
		t.Errorf("ANT defaults = %+v", ac)
	}
	if !dpsync.L0.Compatible() || dpsync.L2.Compatible() {
		t.Error("leakage-class compatibility surfaced wrong")
	}
	d := dpsync.NewDummy(dpsync.GreenTaxi)
	if !d.Dummy {
		t.Error("NewDummy")
	}
}

func TestNaiveStrategiesExposed(t *testing.T) {
	if dpsync.NewSUR().Name() != "SUR" || dpsync.NewOTO().Name() != "OTO" || dpsync.NewSET().Name() != "SET" {
		t.Error("strategy names")
	}
	if !math.IsInf(dpsync.NewSUR().Epsilon(), 1) {
		t.Error("SUR epsilon")
	}
}

func TestCryptoNoiseUsable(t *testing.T) {
	src := dpsync.CryptoNoise()
	u := src.Uniform()
	if !(u > 0 && u < 1) {
		t.Errorf("crypto uniform = %v", u)
	}
}

// ExampleNew demonstrates the quickstart flow: an IoT owner backing up
// sensor events under DP-Timer.
func ExampleNew() {
	db, _ := dpsync.NewObliDB()
	strat, _ := dpsync.NewDPTimer(dpsync.TimerConfig{
		Epsilon: 1, Period: 5, Source: dpsync.SeededNoise(7),
	})
	owner, _ := dpsync.New(dpsync.Config{Database: db, Strategy: strat})
	_ = owner.Setup(nil)

	// Five quiet ticks, then an event, then more quiet ticks.
	for i := 1; i <= 12; i++ {
		if i == 6 {
			_ = owner.Tick(dpsync.Record{PickupTime: 6, PickupID: 42, Provider: dpsync.YellowCab})
		} else {
			_ = owner.Tick()
		}
	}
	fmt.Println("received:", owner.LogicalSize())
	fmt.Println("pattern events:", owner.Pattern().Updates() > 0)
	// Output:
	// received: 1
	// pattern events: true
}
