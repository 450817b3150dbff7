// Fixture proving the widened name rule stays confined to experiments: in any
// other package, only obs/report callees are sinks, so dropping a local
// Write error is (for better or worse) not errsink's business.
package other

import "errors"

type conn struct{}

func (c *conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, errors.New("empty")
	}
	return len(p), nil
}

func dropped(c *conn, p []byte) {
	c.Write(p) // not a sink outside obs/report/experiments: no finding
}
