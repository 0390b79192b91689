"""``python -m steepdesc``: the same entry point as the installed script."""
from .cli import main

if __name__ == "__main__":
    main()
