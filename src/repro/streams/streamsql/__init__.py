"""StreamSQL: the SQL-like surface syntax for query graphs.

StreamBase ships StreamSQL, "a SQL-like representation of query graphs"
(paper Section 2.1); the PEP converts merged query graphs into StreamSQL
scripts before submitting them to the DSMS (Section 3.2, step 5).  This
package implements the dialect exercised by the paper's Figure 4(b):

- ``CREATE INPUT STREAM name (field type, ...);``
- ``CREATE [OUTPUT] STREAM name;``
- ``CREATE WINDOW name (SIZE n ADVANCE m TUPLES|SECONDS);``
- ``SELECT select_list FROM source[window] [WHERE condition] INTO target;``

:func:`generate_streamsql` renders a :class:`~repro.streams.graph.QueryGraph`
into a script in exactly the paper's style; :func:`parse_streamsql` parses
a script back into a graph, so the two are inverse up to naming.

There is one lexical grammar: a script is read by the condition
tokenizer, :func:`repro.expr.lexer.tokenize`, and a WHERE clause is
parsed from the script's own tokens by the condition grammar
(:func:`repro.expr.parser.parse_tokens`), stream qualifiers and ``--``
comments dropped.  Any error, in a condition too, is a
:class:`~repro.errors.StreamSQLError` at the script's line and column.
"""

from repro.streams.streamsql.generator import generate_streamsql
from repro.streams.streamsql.parser import ParsedScript, parse_streamsql

__all__ = ["generate_streamsql", "parse_streamsql", "ParsedScript"]
