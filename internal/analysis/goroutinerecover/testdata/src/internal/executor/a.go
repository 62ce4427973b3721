// Fixture for the goroutinerecover analyzer: the accepted goroutine
// shapes (boundary recover, delegation to a contained runner, reasoned
// ignore) and the flagged ones.
package executor

import "sync"

type unit struct{}

func (u unit) run() {}

func capture(r any) {}

// exec is a contained runner: its body installs a top-level recover
// defer, the workUnit.exec shape from the real executor.
func (u unit) exec() {
	defer func() {
		if r := recover(); r != nil {
			capture(r)
		}
	}()
	u.run()
}

// recoverAll is a contained named defer target.
func recoverAll() {
	if r := recover(); r != nil {
		capture(r)
	}
}

func work() {}

func spawnRaw() {
	go func() { // want `goroutine without panic containment`
		work()
	}()
}

func spawnRecovered() {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				capture(r)
			}
		}()
		work()
	}()
}

func spawnNamedDeferRecover() {
	go func() {
		defer recoverAll()
		work()
	}()
}

// The pool worker shape: a claim loop delegating every unit of
// real work to a contained runner.
func spawnDelegating(units []unit) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, u := range units {
			u.exec()
		}
	}()
	wg.Wait()
}

func spawnNamed(u unit) {
	go u.exec() // contained method
	go work()   // want `goroutine without panic containment`
}

func spawnIgnored() {
	//reoptvet:ignore goroutinerecover body is a single channel close and cannot panic; pinned by the fixture
	go func() { work() }()
}
