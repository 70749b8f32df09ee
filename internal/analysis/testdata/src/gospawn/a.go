// Package gospawn exercises the gospawn analyzer: every go statement must
// live inside the package's spawn helper.
package gospawn

import "sync"

type pool struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// spawn is the one blessed goroutine entry point: it converts panics into
// recorded errors, so a fault surfaces instead of killing the process.
func (p *pool) spawn(fn func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				p.mu.Lock()
				if err, ok := r.(error); ok && p.err == nil {
					p.err = err
				}
				p.mu.Unlock()
			}
		}()
		fn()
	}()
}

func (p *pool) bare(fn func()) {
	go fn() // want "bare go statement"
}

func (p *pool) bareClosure(fn func()) {
	p.wg.Add(1)
	go func() { // want "bare go statement"
		defer p.wg.Done()
		fn()
	}()
}

func (p *pool) routed(fn func()) {
	p.spawn(fn)
	p.wg.Wait()
}
