"""iFuice-style script language (paper §4).

MOMA match workflows are written as scripts over mapping operators::

    PROCEDURE nhMatch ( $Asso1, $Same, $Asso2 )
       $Temp   = compose ( $Asso1, $Same, Min, Average )
       $Result = compose ( $Temp, $Asso2, Min, Relative )
       RETURN $Result
    END

    $CoAuthSim = nhMatch ( DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor )
    $NameSim   = attrMatch ( DBLP.Author, DBLP.Author, Trigram, 0.5,
                             "[name]", "[name]" )
    $Merged    = merge ( $CoAuthSim, $NameSim, Average )
    $Result    = select ( $Merged, "[domain.id]<>[range.id]" )

This package provides the lexer, parser and interpreter for that
language, plus the builtin operator bindings and the constraint
expression evaluator used by ``select``.  Scripts are the workflow
tier of :mod:`repro.core.workflow` in another notation: a
:class:`ScriptEngine` runs in a ``MatchContext`` (its own, or one
shared with workflows), a top-level ``$Var = <mapping>`` is a recorded
step, and ``Trigram`` / ``Average`` / ``Relative`` are symbols because
the similarity, combination and aggregate registries know them — see
docs/workflows.md.
"""

from repro.script.constraints import ConstraintExpression
from repro.script.errors import ScriptError, ScriptRuntimeError, ScriptSyntaxError
from repro.script.interpreter import ScriptEngine
from repro.script.lexer import Token, TokenType, tokenize
from repro.script.parser import parse

__all__ = [
    "ConstraintExpression",
    "ScriptEngine",
    "ScriptError",
    "ScriptRuntimeError",
    "ScriptSyntaxError",
    "Token",
    "TokenType",
    "parse",
    "tokenize",
]
