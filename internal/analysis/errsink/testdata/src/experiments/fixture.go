// Fixture for errsink's widened experiments mode: inside a package named
// experiments, every Write*/Close/Flush/Sync callee with a trailing error
// counts, whatever package defines it — modeling result-cache file
// writes — while the never-failing stdlib writers (strings.Builder,
// bytes.Buffer) stay out of the net.
package experiments

import (
	"bytes"
	"errors"
	"strings"
)

// conn stands in for an *os.File: not an obs or report type, so outside
// experiments its errors would be ignored.
type conn struct{ dead bool }

func (c *conn) Write(p []byte) (int, error) {
	if c.dead {
		return 0, errors.New("broken pipe")
	}
	return len(p), nil
}

func (c *conn) Close() error { return nil }

func (c *conn) Flush() error { return nil }

func handled(c *conn, p []byte) error {
	if _, err := c.Write(p); err != nil {
		return err
	}
	return c.Close()
}

func droppedWrite(c *conn, p []byte) {
	c.Write(p) // want `unchecked error from experiments.Write`
}

func blankWrite(c *conn, p []byte) {
	_, _ = c.Write(p) // want `error from experiments.Write assigned to _`
}

func droppedFlush(c *conn) {
	defer c.Flush() // want `unchecked error from experiments.Flush .deferred`
}

func bestEffort(c *conn, p []byte) {
	_, _ = c.Write(p) //dtmlint:allow errsink already failing; best-effort cleanup
}

// builders never fail: their Write* methods keep the io signature but
// are documented to always return nil errors.
func render(b *strings.Builder, buf *bytes.Buffer) string {
	b.WriteString("row")
	buf.WriteString("row")
	return b.String()
}
